import cmath
import math
from fractions import Fraction

import pytest

import tests.test_acceptance as acceptance
from hermlift import charsums
from hermlift.arith import divisors, kronecker
from hermlift.charsums import (check_closed_form, gauss_sum, norm_sum, norm_sum_check,
                               salie_check, salie_lhs, salie_rhs)
from hermlift.cyclotomic import CycloNum, csum, root_of_unity
from hermlift.quadfield import Character, QuadField, chi_component
from tests.conftest import ALL_D


def _admissible(D):
    return [m for m in divisors(D) if m > 1 and math.gcd(m, D // m) == 1]


@pytest.mark.parametrize("D", ALL_D)
def test_gauss_sum_square(D):
    # G(psi_m)^2 = psi_m(-1) * m for the quadratic character mod m
    f = QuadField(D)
    for m in _admissible(f.D):
        psi = chi_component(f, m)
        G = gauss_sum(psi)
        assert (G * G - psi(-1) * m).is_zero()
        assert check_closed_form(psi)


@pytest.mark.parametrize("D", ALL_D)
def test_gauss_sum_embedding(D):
    # numerically: G = sqrt(m) or i*sqrt(m) according to psi(-1)
    f = QuadField(D)
    for m in _admissible(f.D):
        psi = chi_component(f, m)
        G = gauss_sum(psi).embed()
        want = math.sqrt(m) * (1 if psi(-1) == 1 else 1j)
        assert abs(G - want) < 1e-9


def test_gauss_sum_twisted_by_b():
    # G(psi; b) = psi(b) G(psi) for gcd(b, m) = 1
    f = QuadField(15)
    for m in (3, 5, 15):
        psi = chi_component(f, m)
        G1 = gauss_sum(psi)
        for b in range(1, m):
            if math.gcd(b, m) != 1:
                continue
            assert (gauss_sum(psi, b) - psi(b) * G1).is_zero()


def test_gauss_sum_inverse():
    # 1/G(psi; b) = G(psi; -b)/m for gcd(b, m) = 1, the inversion identity
    # the cyclotomic module leaves to its callers
    f = QuadField(7)
    psi = chi_component(f, 7)
    for b in range(1, 7):
        assert (gauss_sum(psi, b) * gauss_sum(psi, -b) * Fraction(1, 7) - 1).is_zero()


def test_gauss_sum_brute_force_matches():
    # spot check against the defining sum, complex arithmetic
    f = QuadField(11)
    psi = chi_component(f, 11)
    direct = sum(psi(a) * cmath.exp(2j * cmath.pi * a / 11) for a in range(11))
    assert abs(gauss_sum(psi).embed() - direct) < 1e-9


@pytest.mark.parametrize("p", [3, 5, 7])
def test_salie_exhaustive_small(p):
    for x in range(p):
        for y in range(p):
            for z in range(1, p):
                lhs, rhs, ok = salie_check(p, x, y, z)
                assert ok, (p, x, y, z, lhs, rhs)


def test_salie_lhs_is_the_defining_sum():
    # one hand-computed case: p = 3, x = y = z = 1:
    # sum over j in (Z/3)^* of (j|3) e[(j + j^{-1})/3]
    # j=1: +e[2/3]; j=2: -e[4/3] = -e[1/3]
    got = salie_lhs(3, 1, 1, 1)
    assert (got - (root_of_unity(Fraction(2, 3)) - root_of_unity(Fraction(4, 3)))).is_zero()


@pytest.mark.parametrize("D", ALL_D)
def test_norm_sums(D):
    # sum over representatives of O_K mod N of e[N(a)*t/N] = chi(N)*N
    f = QuadField(D)
    for N in range(1, 21):
        if math.gcd(N, D) != 1:
            continue
        for t in range(1, N + 1):
            if math.gcd(t, N) != 1:
                continue
            assert norm_sum_check(f, N, t), (D, N, t)
            s = norm_sum(f, N, t)
            assert (s - f.chi(N) * N).is_zero()


def test_norm_sum_rejects_bad_args():
    f = QuadField(3)
    with pytest.raises(ValueError):
        norm_sum_check(f, 6, 1)  # N not coprime to D
    with pytest.raises(ValueError):
        norm_sum_check(f, 4, 2)  # t not coprime to N


# -- the sums term by term: one CycloNum per term, added by csum -------------


def _gauss_sum_oracle(psi, b=1):
    M = psi.modulus
    if M == 1:
        return CycloNum.from_rational(1)
    return csum(v * root_of_unity(Fraction(a * b, M)) for a in range(M) if (v := psi(a)))


class _KroneckerChar:
    """(n | p) from arith.kronecker, independent of the table of legendre(p)."""

    def __init__(self, p):
        self.modulus = p

    def __call__(self, n):
        return kronecker(n, self.modulus)


def _salie_lhs_oracle(p, x, y, z):
    psi = _KroneckerChar(p)
    return csum(psi(j) * root_of_unity(Fraction(z * (j * x * x + pow(j, -1, p) * y * y), p))
                for j in range(1, p))


def _salie_rhs_oracle(p, x, y, z):
    psi = _KroneckerChar(p)
    mid = Fraction(psi(x * x) + psi(y * y), 1 + psi(y * y))
    if mid == 0:
        return CycloNum.zero()
    tail = csum(root_of_unity(Fraction(2 * x * z * g, p))
                for g in range(p) if (g * g - y * y) % p == 0)
    return _gauss_sum_oracle(psi, z) * CycloNum.from_rational(mid) * tail


def _norm_counts_oracle(field, N):
    """The histogram of |gamma|^2 mod N over O_K/N by the N^2 double loop."""
    tr, nm = field.omega_trace, field.omega_norm
    out = [0] * N
    for a in range(N):
        for b in range(N):
            out[(a * a + tr * a * b + nm * b * b) % N] += 1
    return tuple(out)


def _norm_sum_oracle(field, N, t):
    tr, nm = field.omega_trace, field.omega_norm
    return csum(root_of_unity(Fraction(t * (a * a + tr * a * b + nm * b * b), N))
                for a in range(N) for b in range(N))


def _rep(x):
    return x.order, x.coeffs, x.den


@pytest.mark.parametrize("D", ALL_D)
def test_histogram_sums_equal_the_term_by_term_oracle(D):
    # every norm sum with N <= 20, 0 <= t <= N (t = 0 and t not coprime to
    # N included), and every Gauss component twisted by b in [-m, 2m)
    f = QuadField(D)
    for N in range(1, 21):
        for t in range(N + 1):
            assert _rep(norm_sum(f, N, t)) == _rep(_norm_sum_oracle(f, N, t)), (N, t)
    for m in divisors(D):
        if math.gcd(m, D // m) != 1:
            continue
        psi = chi_component(f, m)
        for b in range(-m, 2 * m):
            assert _rep(gauss_sum(psi, b)) == _rep(_gauss_sum_oracle(psi, b)), (m, b)


@pytest.mark.parametrize("D", ALL_D)
def test_norm_histogram_equals_the_double_loop(D):
    f = QuadField(D)
    for N in range(1, 21):
        assert charsums._norm_counts(f.omega_trace, f.omega_norm, N) == _norm_counts_oracle(f, N), N


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_legendre_table_is_the_kronecker_symbol(p):
    psi = charsums.legendre(p)
    assert psi.modulus == p and len(psi.table) == p
    assert [psi(n) for n in range(-2 * p, 2 * p)] == [kronecker(n, p) for n in range(-2 * p, 2 * p)]


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 9, 15, 21, 25])
def test_legendre_refuses_what_is_not_an_odd_prime(p):
    # kronecker(n, 9) is the Jacobi symbol (0, 1, 1, 0, 1, 1, ...), not a character mod a prime
    with pytest.raises(ValueError, match="odd prime"):
        charsums.legendre(p)


@pytest.mark.parametrize("p", [9, 15, 25])
def test_salie_check_refuses_a_composite_modulus(p):
    # a unit z mod p, so the refusal is the modulus's and not z's
    with pytest.raises(ValueError, match="odd prime"):
        salie_check(p, 1, 1, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_salie_sums_equal_the_term_by_term_oracle(p):
    for x in range(p):
        for y in range(p):
            for z in range(1, p):
                assert _rep(salie_lhs(p, x, y, z)) == _rep(_salie_lhs_oracle(p, x, y, z))
                assert _rep(salie_rhs(p, x, y, z)) == _rep(_salie_rhs_oracle(p, x, y, z))


# -- injected faults: the campaign checks c04-c06 locate them ----------------


def _faulty_esum(monkeypatch, edit, when=lambda M: True):
    """Replace charsums.esum by one that passes the terms of each sum it
    makes while armed, and for which when(M) holds, through edit.  Returns
    the arming flag, set."""
    real, armed = charsums.esum, [True]

    def esum(M, terms):
        return real(M, edit(list(terms)) if armed[0] and when(M) else terms)

    monkeypatch.setattr(charsums, "esum", esum)
    return armed


def _arm_only_at(monkeypatch, armed, module, name, target):
    """Wrap module.name so that the fault is armed on the arguments target only."""
    real = getattr(module, name)

    def wrapped(*args):
        armed[0] = args == target
        try:
            return real(*args)
        finally:
            armed[0] = False

    armed[0] = False
    monkeypatch.setattr(module, name, wrapped)


def _shift_first_exponent(terms):
    (k, w), *rest = terms
    return [(k + 1, w), *rest]


def _negate_first_weight(terms):
    (k, w), *rest = terms
    return [(k, -w), *rest]


def test_c06_locates_a_shifted_norm_sum_exponent(monkeypatch):
    armed = _faulty_esum(monkeypatch, _shift_first_exponent)
    f = QuadField(7)
    _arm_only_at(monkeypatch, armed, acceptance, "norm_sum", (f, 5, 2))
    assert acceptance.norm_sum_failures() == [(7, 5, 2)]


def test_c04_locates_a_shifted_salie_term(monkeypatch):
    armed = _faulty_esum(monkeypatch, _shift_first_exponent)
    _arm_only_at(monkeypatch, armed, charsums, "salie_lhs", (7, 3, 2, 4))
    assert acceptance.salie_failures() == [(7, 3, 2, 4)]


def test_c05_locates_a_negated_gauss_term(monkeypatch):
    # every Gauss sum mod 5 loses the sign of its first term
    _faulty_esum(monkeypatch, _negate_first_weight, when=lambda M: M == 5)
    assert acceptance.gauss_failures() == [(15, 5), (20, 5)]


@pytest.mark.parametrize("D,r", [(7, 3), (15, 2), (24, 5)])
def test_c05_locates_a_flipped_chi_K_value(monkeypatch, D, r):
    # every component psi_m is read from chi_K, so one wrong value of chi_K
    # at a unit r mod D breaks at least psi_D, and only components of that D
    real = QuadField.chi

    def flipped(self, n):
        v = real(self, n)
        return -v if self.D == D and n % D == r else v

    monkeypatch.setattr(QuadField, "chi", flipped)
    chi_component.cache_clear()
    try:
        failures = acceptance.gauss_failures()
    finally:
        chi_component.cache_clear()
    assert (D, D) in failures
    assert {d for d, _ in failures} == {D}


def test_c04_locates_a_flipped_legendre_entry(monkeypatch):
    # (3 | 7) = -1 read as +1 on both sides: at x = y = 0 the left side is
    # sum_j psi(j) = 2 while the middle factor of the right side is 0
    real = charsums.legendre
    bad = Character(7, tuple(-v if n == 3 else v for n, v in enumerate(real(7).table)))
    monkeypatch.setattr(charsums, "legendre", lambda p: bad if p == 7 else real(p))
    charsums._legendre_gauss.cache_clear()  # its G(psi; z) are read from the flipped table
    try:
        failures = acceptance.salie_failures()
    finally:
        charsums._legendre_gauss.cache_clear()
    assert failures
    assert {p for p, *_ in failures} == {7}
    assert [(7, 0, 0, z) for z in range(1, 7)] == [w for w in failures if w[1:3] == (0, 0)]


def test_c06_locates_a_shifted_norm_histogram_bucket(monkeypatch):
    # one gamma of O_K/5 moved from |gamma|^2 = 0 to 1 at D = 7: the sum
    # changes by e[t/5] - 1, nonzero for every t
    f = QuadField(7)
    real = charsums._norm_counts

    def shifted(tr, nm, N):
        counts = list(real(tr, nm, N))
        if (tr, nm, N) == (f.omega_trace, f.omega_norm, 5):
            counts[0] -= 1
            counts[1] += 1
        return tuple(counts)

    monkeypatch.setattr(charsums, "_norm_counts", shifted)
    assert acceptance.norm_sum_failures() == [(7, 5, t) for t in range(1, 5)]
