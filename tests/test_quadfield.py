import math
import tracemalloc
from fractions import Fraction

import pytest

from hermlift.arith import divisors, kronecker, prime_divisors
from hermlift.quadfield import AlgInt, QuadField, a_D, chi_component, class_from_key, classes
from tests.conftest import ALL_D


def test_fundamental_validation():
    for D in ALL_D:
        QuadField(D)
    for D in (1, 12, 16, 27, 28, 9, 18):
        with pytest.raises(ValueError):
            QuadField(D)


@pytest.mark.parametrize("D", ALL_D)
def test_omega_trace_norm(D):
    f = QuadField(D)
    if D % 4 == 3:
        assert (f.omega_trace, f.omega_norm) == (1, (1 + D) // 4)
    else:
        assert D % 4 == 0
        assert (f.omega_trace, f.omega_norm) == (0, D // 4)


@pytest.mark.parametrize("D", ALL_D)
def test_chi_is_kronecker_of_minus_D(D):
    from sympy.functions.combinatorial.numbers import jacobi_symbol

    f = QuadField(D)
    for n in range(1, 60):
        if math.gcd(n, D) != 1:
            assert f.chi(n) == 0
        elif n % 2 == 1:
            assert f.chi(n) == jacobi_symbol(-D, n)
    # multiplicativity and the factorization into prime components
    for a in range(1, 40):
        for b in range(1, 40):
            assert f.chi(a * b) == f.chi(a) * f.chi(b)
        prod = 1
        for p in prime_divisors(D):
            prod *= f.chi_p(p, a)
        assert f.chi(a) == prod


@pytest.mark.parametrize("D", ALL_D)
def test_classes_group_structure(D):
    f = QuadField(D)
    cls = classes(f)
    assert len(cls) == D
    keys = {u.key for u in cls}
    assert len(keys) == D
    for u in cls:
        assert class_from_key(f, u.key) is u or class_from_key(f, u.key).key == u.key
        # mult counts the classes of the same D|u|^2 mod D
        assert u.mult == a_D_by_count(f, -u.dnorm) >= 1


@pytest.mark.parametrize("D", ALL_D)
def test_dnorm_convention(D):
    # odd D: x^2 reduced mod D; even D: the unreduced lead*x1^2 + x2^2
    f = QuadField(D)
    for u in classes(f):
        if f.e == 0:
            (x,) = u.key
            assert u.dnorm == x * x % D and 0 <= u.dnorm < D
        else:
            x1, x2 = u.key
            assert u.dnorm == 2 ** (f.e - 2) * f.Dprime * x1 * x1 + x2 * x2


def a_D_by_count(field: QuadField, ell: int) -> int:
    """Independent brute-force count of {u in [d_K] : D|u|^2 = -ell mod D}."""
    return sum(1 for u in classes(field) if (u.dnorm + ell) % field.D == 0)


@pytest.mark.parametrize("D", ALL_D)
def test_a_D_formula_vs_count(D):
    f = QuadField(D)
    for ell in range(-2 * D, 2 * D + 1):
        assert a_D(f, ell) == a_D_by_count(f, ell)


@pytest.mark.parametrize("D", ALL_D)
def test_a_D_values(D):
    f = QuadField(D)
    # a_D(l) = prod_p (1 + chi_p(-l)): 0, or a power of two; period D
    for ell in range(0, 3 * D):
        v = a_D(f, ell)
        assert v in {0, 1, 2, 4, 8}
        assert v == a_D(f, ell + D)
    # total mass: sum over classes of 1 equals D
    assert sum(1 for _ in classes(f)) == D


def test_algint_arithmetic():
    f = QuadField(7)
    x = AlgInt(f, 2, 3)   # 2 + 3*omega
    y = AlgInt(f, -1, 1)
    assert (x + y).a == 1 and (x + y).b == 4
    # the norm agrees with the complex embedding
    import cmath

    om = complex(Fraction(f.omega_trace, 2), math.sqrt(7) / 2)
    for z in (x, y, x * y, x.conj()):
        zc = z.a + z.b * om
        assert abs(z.norm() - abs(zc) ** 2) < 1e-9
    assert ((x * y) - (y * x)).a == 0
    assert (x * x.conj()).a == x.norm()
    assert (x * x.conj()).b == 0


def test_chi2_only_for_even_D():
    with pytest.raises(ValueError):
        QuadField(3).chi2(5)
    # chi_{-4} at D = 4, 20; chi_{-8} at D = 8 (D' = 1); chi_8 at D = 24 (D' = 3)
    want = {4: (1, -1, 1, -1), 20: (1, -1, 1, -1), 8: (1, 1, -1, -1), 24: (1, -1, -1, 1)}
    for D, vals in want.items():
        f = QuadField(D)
        assert tuple(f.chi2(n) for n in (1, 3, 5, 7)) == vals
        assert [f.chi2(n) for n in range(-8, 9, 2)] == [0] * 9
        assert all(f.chi2(n) == f.chi2(n + 8) for n in range(-8, 8))


@pytest.mark.parametrize("D", ALL_D)
def test_chi_component_is_character(D):
    from hermlift.arith import divisors

    f = QuadField(D)
    for m in divisors(D):
        if math.gcd(m, D // m) != 1:
            continue
        psi = chi_component(f, m)
        for a in range(1, 30):
            for b in range(1, 30):
                assert psi(a * b) == psi(a) * psi(b)
            if math.gcd(a, m) != 1:
                assert psi(a) == 0


def _chi2_oracle(f, n):
    """chi_2 from its own definition: chi_{-4} at e = 2; chi_{-8} or chi_8 at
    e = 3 as D' = 1 or 3 mod 4."""
    if n % 2 == 0:
        return 0
    if f.e == 2:
        return -1 if n % 4 == 3 else 1
    return kronecker(-8 if f.Dprime % 4 == 1 else 8, n)


@pytest.mark.parametrize("D", ALL_D)
def test_character_table_matches_product_formula(D):
    # psi_m(n) = prod_{p | m odd prime} (n | p) * chi_2(n) [2 | m], periodic mod m
    f = QuadField(D)
    for m in divisors(D):
        if math.gcd(m, D // m) != 1:
            continue
        psi = chi_component(f, m)
        assert len(psi.table) == m
        for n in range(-3 * m, 3 * m + 1):
            want = 1
            for p in prime_divisors(m):
                want *= _chi2_oracle(f, n) if p == 2 else kronecker(n, p)
            assert psi(n) == want, (m, n)


def test_field_builds_nothing_of_size_D():
    # chi_K is read from the Kronecker symbol, not from a table mod D
    tracemalloc.start()
    try:
        f = QuadField(1000003)
        assert f.chi(2) == -1 and f.chi(3) == -1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
