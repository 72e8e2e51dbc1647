import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlift import thetamat
from hermlift.arith import bezout, valuation
from hermlift.charsums import i_sqrtD
from hermlift.cli import run_mode
from hermlift.criterion import random_gamma0, sweep_sigmas
from hermlift.cyclotomic import CycloNum, csum, esum
from hermlift.quadfield import QuadField, classes
from hermlift.thetamat import (Mat2Z, mat_mul, matrices_equal, theta_eval,
                               theta_matrix, theta_matrix_closed,
                               theta_matrix_closed_factored, theta_slash)
from tests.conftest import ALL_D, SMALL_D

J = Mat2Z(0, -1, 1, 0)
T = Mat2Z(1, 1, 0, 1)


def test_mat2z_group_ops():
    g = Mat2Z(2, 1, 1, 1)
    h = Mat2Z(1, 3, 0, 1)
    assert (g * h).det() == 1
    gi = g.inv()
    assert (g * gi).entries() == (1, 0, 0, 1)
    assert (g * h).entries() != (h * g).entries()


@pytest.mark.parametrize("D", ALL_D)
def test_identity_matrix(D):
    f = QuadField(D)
    M = theta_matrix(f, Mat2Z(1, 0, 0, 1))
    for i in range(D):
        for j in range(D):
            want = 1 if i == j else 0
            assert (M[i][j] - want).is_zero()


@pytest.mark.parametrize("D", ALL_D)
def test_translation_is_diagonal(D):
    # T acts diagonally: phase e[|u|^2] on the u-th theta component
    f = QuadField(D)
    M = theta_matrix(f, T)
    for i in range(D):
        for j in range(D):
            if i != j:
                assert M[i][j].is_zero()
            else:
                assert not M[i][j].is_zero()


def random_pair(f, rng):
    # keep the product's lower-left entry moderate: the defining-sum cost
    # grows like c^2 and the identity itself does not depend on |c|
    while True:
        g1 = random_gamma0(f, rng)
        g2 = random_gamma0(f, rng)
        if abs((g1 * g2).c) <= 4 * f.D:
            return g1, g2


@pytest.mark.parametrize("D", ALL_D)
def test_homomorphism_random_pairs(D):
    f = QuadField(D)
    rng = random.Random(D)
    for _ in range(8):
        g1, g2 = random_pair(f, rng)
        lhs = theta_matrix(f, g1 * g2)
        rhs = mat_mul(theta_matrix(f, g1), theta_matrix(f, g2))
        assert matrices_equal(lhs, rhs), (D, g1.entries(), g2.entries())


@pytest.mark.parametrize("D", ALL_D)
def test_closed_form_matches_defining_sum(D):
    f = QuadField(D)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        assert matrices_equal(theta_matrix(f, sigma),
                              theta_matrix_closed(f, sigma)), (D, sigma.entries())


@pytest.mark.parametrize("D", ALL_D)
def test_factored_form_consistent(D):
    f = QuadField(D)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        scal, light = theta_matrix_closed_factored(f, sigma)
        full = theta_matrix_closed(f, sigma)
        for i in range(D):
            for j in range(D):
                assert (scal * light[i][j] - full[i][j]).is_zero()


@pytest.mark.parametrize("D", SMALL_D)
def test_functional_equation_numeric(D):
    # theta_u | sigma = sum_v M(sigma)[u][v] theta_v at sample points
    f = QuadField(D)
    cls = classes(f)
    pts = [(0.13 + 1.2j, 0.08 + 0.03j, -0.05 + 0.06j),
           (-0.4 + 0.9j, 0.0 + 0.0j, 0.1 + 0.0j),
           (0.02 + 1.6j, -0.07 + 0.02j, 0.03 - 0.04j)]
    for sigma in (J, T, Mat2Z(1, 0, 1, 1)):
        M = theta_matrix(f, sigma)
        for tau, z, w in pts:
            for u_i, u in enumerate(cls):
                lhs = theta_slash(f, u, sigma, tau, z, w, radius=16)
                rhs = sum(
                    M[u_i][v_i].embed() * theta_eval(f, v, tau, z, w, radius=16)
                    for v_i, v in enumerate(cls)
                )
                assert abs(lhs - rhs) < 1e-6, (D, sigma.entries(), tau, u_i)


def test_unimodularity_of_theta_matrix():
    # M(sigma) is unitary: M * conj(M)^t = I (theta components are a basis)
    f = QuadField(7)
    M = theta_matrix(f, J)
    n = len(M)
    for i in range(n):
        for j in range(n):
            s = sum((M[i][k] * M[j][k].conjugate() for k in range(n)),
                    start=type(M[0][0]).zero())
            assert (s - (1 if i == j else 0)).is_zero()


@pytest.mark.parametrize("a", (10**16, 10**19))
def test_defining_sum_exact_for_large_entries(a):
    # unreduced, a*nrm(gamma) wraps around int64 at a = 10^16 and does not
    # convert to int64 at all at a = 10^19
    f = QuadField(7)
    sigma = Mat2Z(a, a - 1, 1, 1)
    assert matrices_equal(theta_matrix(f, sigma), theta_matrix_closed(f, sigma))


def test_defining_sum_refuses_an_oversized_grid(monkeypatch):
    # the factor 5^6 of c = 10^6 needs a 5^12-residue grid: refused before
    # any factor sum is taken
    def unreached(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(thetamat, "_factor_sums", unreached)
    c = 10**6
    with pytest.raises(OverflowError):
        theta_matrix(QuadField(3), Mat2Z(35 * c + 1, 35, c, 1))


# ---------------------------------------------------------------------------
# the factored defining sum against the unfactored sum, entry by entry


def _theta_matrix_per_entry(field, sigma, rows):
    """The rows `rows` of M(sigma), c != 0, entry by entry: one histogram of
    the |c|^2 lattice exponents per (u, v), times the prefactor
    -G(chi_K)/(D c) as a CycloNum; the other rows are left None."""
    a, b, c, d = sigma.entries()
    D = field.D
    cls = classes(field)
    pref = i_sqrtD(D) * Fraction(-1, D * c)
    t = 2 * D
    cabs = abs(c)
    L0 = t * t * cabs
    a, d = a % L0, d % L0
    U1 = [int(t * u.coords()[0]) for u in cls]
    U2 = [int(t * u.coords()[1]) for u in cls]
    al = np.repeat(np.arange(cabs, dtype=np.int64), cabs)
    be = np.tile(np.arange(cabs, dtype=np.int64), cabs)
    out = [None] * D
    for ui in rows:
        G1 = U1[ui] + t * al + ((t // 2) * be if field.e == 0 else 0)
        G2 = U2[ui] + (t // 2) * be
        NG = a * (G1 * G1 + D * G2 * G2)
        row = []
        for V1, V2 in zip(U1, U2):
            num = NG - 2 * (G1 * V1 + D * G2 * V2) + d * (V1 * V1 + D * V2 * V2)
            if c < 0:
                num = -num
            keys, counts = np.unique(np.mod(num, L0), return_counts=True)
            g = math.gcd(L0, *keys.tolist())
            acc = CycloNum(L0 // g, {int(k) // g: int(m) for k, m in zip(keys, counts)})
            row.append(pref * acc)
        out[ui] = row
    return out


def _with_c(c, d):
    """A sigma of determinant 1 with lower row (c, d), gcd(c, d) = 1."""
    g, x, y = bezout(d, -c)  # d*x - c*y = g = +-1
    return Mat2Z(g * x, g * y, c, d)


def _least_d(c):
    return next(x for x in range(5, 5 + abs(c) + 2) if math.gcd(x, c) == 1)


# c with several prime powers, and large 2-powers, also at odd D where the
# norm form is not diagonal mod 2^e
SEVERAL_PRIME_POWERS = {15: (30, -30, 960), 7: (96, 448), 24: (-80,), 20: (2**7,)}


@pytest.mark.parametrize("D", (3, 4, 7, 8, 15, 20, 24))
def test_block_histogram_equals_per_entry_sum(D):
    f = QuadField(D)
    for c in (1, -1, 2, -2, 3, D, -D, -2 * D, 4 * D) + SEVERAL_PRIME_POWERS.get(D, ()):
        sigma = _with_c(c, _least_d(c))
        # a full unfactored matrix at c = 960 takes seconds: two rows stand for it
        rows = (1, D - 1) if abs(c) > 500 else range(D)
        got, want = theta_matrix(f, sigma), _theta_matrix_per_entry(f, sigma, rows)
        assert matrices_equal([got[u] for u in rows], [want[u] for u in rows]), (D, sigma.entries())


# the pairs of verify --D 24 --mode theta at seed 0 whose product has the
# largest |c|: 624 = 2^4 3 13, 768 = 2^8 3 and 864 = 2^5 3^3
VERIFY_24_PAIRS = [(Mat2Z(7, 9, 24, 31), Mat2Z(-5, -9, 24, 43)),
                   (Mat2Z(19, 34, 24, 43), Mat2Z(-11, -17, 24, 37)),
                   (Mat2Z(-7, -5, 24, 17), Mat2Z(19, 34, 24, 43))]


def test_homomorphism_at_large_c():
    f = QuadField(24)
    assert sorted((g1 * g2).c for g1, g2 in VERIFY_24_PAIRS) == [624, 768, 864]
    for g1, g2 in VERIFY_24_PAIRS:
        assert matrices_equal(theta_matrix(f, g1 * g2),
                              mat_mul(theta_matrix(f, g1), theta_matrix(f, g2))), (g1, g2)


@pytest.mark.parametrize("block", (1, 2**30))
def test_blocks_do_not_change_the_sum(monkeypatch, block):
    # one distinct (Tr y, Tr(conj(omega) y)) per block, and all in one block
    f = QuadField(15)
    sigma = _with_c(30, 7)
    whole = theta_matrix(f, sigma)
    monkeypatch.setattr(thetamat, "_BLOCK", block)
    # an empty factor-sum cache, so the sums are taken again in these blocks
    monkeypatch.setattr(thetamat, "_sums", {})
    assert matrices_equal(theta_matrix(f, sigma), whole)


def test_factor_sum_cache_is_bounded(monkeypatch):
    # a bound of about two factors' sums (some 2 kB each at D = 15) drops
    # the oldest, keeps none over it, and leaves the values as they are
    f = QuadField(15)
    sigmas = [_with_c(c, _least_d(c)) for c in (30, 45, 60, -75)]
    whole = [theta_matrix(f, s) for s in sigmas]
    monkeypatch.setattr(thetamat, "_sums", {})
    monkeypatch.setattr(thetamat, "_SUMS", 4000)
    sizes = []
    for s, M in zip(sigmas, whole):
        assert matrices_equal(theta_matrix(f, s), M)
        sizes.append(sum(r.nbytes + c.nbytes for r, c in thetamat._sums.values()))
        assert all(not x.flags.writeable for pair in thetamat._sums.values() for x in pair)
    # the 25-residue factor of c = -75 alone is over the bound
    assert 0 < min(sizes[:3]) and max(sizes) <= 4000 and sizes[3] == 0


# ---------------------------------------------------------------------------
# injected faults are located


def _shift_factor(monkeypatch, P):
    """The factor sum over O_K/P^e times e[1/P^e]: its counts move up one exponent."""
    factor_sums = thetamat._factor_sums

    def shifted(field, A, a, q, p):
        row, counts = factor_sums(field, A, a, q, p)
        return row, np.roll(counts, 1, axis=1) if p == P else counts

    monkeypatch.setattr(thetamat, "_factor_sums", shifted)


def _shift_of(c, P):
    """The fault's factor e[shift] on M(sigma) for the lower-left entry c."""
    e = valuation(c, P) if c else 0
    return Fraction(1, P**e) if e else Fraction(0)


@pytest.mark.parametrize("D,P", [(15, 5), (7, 3), (20, 2)])
def test_a_shifted_factor_is_located(monkeypatch, D, P):
    # M(sigma) turns into e[1/P^e] M(sigma) where P^e || c: the closed form
    # fails exactly at the sweep sigma with P | c, and c03's homomorphism
    # exactly at the pairs where the shifts of the two sides differ
    f = QuadField(D)
    rng = random.Random(D)
    pairs = [random_pair(f, rng) for _ in range(20)]
    _shift_factor(monkeypatch, P)
    got = [not matrices_equal(theta_matrix(f, g1 * g2),
                              mat_mul(theta_matrix(f, g1), theta_matrix(f, g2))) for g1, g2 in pairs]
    want = [(_shift_of(g1.c, P) + _shift_of(g2.c, P) - _shift_of((g1 * g2).c, P)) % 1 != 0
            for g1, g2 in pairs]
    assert got == want and any(got)
    sweep = [s for s in sweep_sigmas(f) if s.c > 0 and D % s.c == 0]
    got = [not matrices_equal(theta_matrix(f, s), theta_matrix_closed(f, s)) for s in sweep]
    assert got == [s.c % P == 0 for s in sweep] and not all(got)


def test_verify_locates_a_shifted_factor_at_13(monkeypatch):
    # 13 divides only the 624 pair of verify --D 24 --mode theta at seed 0
    # and no c of the closed-form sweep: that pair is the one failure
    _shift_factor(monkeypatch, 13)
    rep = run_mode("theta", 24, 1, seed=0)
    g1, g2 = VERIFY_24_PAIRS[0]
    assert rep["checked"] == 110
    assert rep["failures"] == [{"check": "homomorphism", "g1": list(g1.entries()),
                                "g2": list(g2.entries())}]


def _dropped_shift(W):
    # G(chi_K) without its term chi(k) e[k/D] for the least k > 1 with chi(k) != 0
    W = W.copy()
    k = next(k for k in range(2, len(W)) if W[0, k])
    for q in range(len(W)):
        W[q, (q + k) % len(W)] = 0
    return W


@pytest.mark.parametrize("fault", ("sign", "drop"))
@pytest.mark.parametrize("D", (7, 8))
def test_injected_prefactor_fault_is_reported(monkeypatch, fault, D):
    # the fault turns M(sigma) into lam * M(sigma) wherever c != 0, with
    # lam = -1 (sign) or 1 - chi(k) e[k/D] / G(chi_K) (drop; lam^2 != 1), so
    # the c03 homomorphism fails exactly at the pairs where lam^[c(g1 g2) != 0]
    # differs from lam^([c(g1) != 0] + [c(g2) != 0]), and the closed form at
    # every sigma of the sweep
    f = QuadField(D)
    rng = random.Random(D)
    pairs = [random_pair(f, rng) for _ in range(20)]
    fold = thetamat._gauss_fold
    monkeypatch.setattr(thetamat, "_gauss_fold", lambda field: (
        -fold(field) if fault == "sign" else _dropped_shift(fold(field))))
    failed = 0
    for g1, g2 in pairs:
        n1, n2, n = ((g.c != 0) for g in (g1, g2, g1 * g2))
        want = (n1 + n2 - n) % 2 == 1 if fault == "sign" else n1 + n2 != n
        got = not matrices_equal(theta_matrix(f, g1 * g2),
                                 mat_mul(theta_matrix(f, g1), theta_matrix(f, g2)))
        assert got == want, (D, g1.entries(), g2.entries())
        failed += got
    assert failed
    for sigma in sweep_sigmas(f):
        if sigma.c > 0 and D % sigma.c == 0:
            assert not matrices_equal(theta_matrix(f, sigma), theta_matrix_closed(f, sigma))


def test_matrices_equal_compares_values():
    # entries stored alike are equal at once; the others are compared by
    # value, so representations of one number agree and distinct numbers do not
    i, half = CycloNum.i(), Fraction(1, 2)
    zero_at_4 = CycloNum(4, {1: 1, 3: 1})  # i + (-i)
    assert matrices_equal([[i, zero_at_4]], [[CycloNum(4, {1: 1}), CycloNum.zero()]])
    assert matrices_equal([[CycloNum(4, {0: half})]], [[CycloNum.from_rational(half)]])
    assert not matrices_equal([[i, i]], [[i, -i]])
    assert not matrices_equal([[CycloNum(4, {0: half})]], [[CycloNum(4, {0: half, 1: 1})]])


# ---------------------------------------------------------------------------
# the one-pass reader, the folded scalar and the sparse product


def _rep(x):
    return x.order, x.den, x.coeffs


@given(st.integers(1, 3), st.sampled_from([1, 2, 4, 6, 12, 15, 40]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-100, 100),
                          st.integers(-3, 3)), max_size=30),
       st.sampled_from([1, 2, 6, 35]))
@settings(max_examples=300)
def test_read_equals_esum_per_entry(D, order, rows, den):
    # duplicate, negative and >= order exponents, zero and cancelling
    # weights, den > 1 and entries without rows
    rows = [(u % D, v % D, k, w) for u, v, k, w in rows]
    terms = np.array(rows, dtype=np.int64).reshape(-1, 4)
    got = thetamat._read(order, terms, D, den)
    for u in range(D):
        for v in range(D):
            kw = [(k, w) for x, y, k, w in rows if (x, y) == (u, v)]
            want = esum(order, kw, den) if kw else CycloNum.zero()
            assert _rep(got[u][v]) == _rep(want), (u, v, kw)


def test_read_refuses_an_int64_sort_key():
    with pytest.raises(OverflowError):
        thetamat._read(2**60, np.array([[1, 1, 1, 1]], dtype=np.int64), 4)


def test_closed_form_refuses_int64_weights(monkeypatch):
    f = QuadField(15)
    sigma = next(s for s in sweep_sigmas(f) if s.c == 3)
    scalar, light = thetamat.theta_terms(f, sigma)
    heavy = light.copy()
    heavy[:, 3] = 2**40
    monkeypatch.setattr(thetamat, "theta_terms", lambda field, s: (scalar * 2**20, heavy))
    with pytest.raises(OverflowError):
        theta_matrix_closed(f, sigma)


entries = st.builds(lambda M, kw, den: esum(M, kw, den), st.sampled_from([1, 3, 4, 8, 12]),
                    st.lists(st.tuples(st.integers(0, 23), st.integers(-2, 2)), max_size=4),
                    st.sampled_from([1, 2, 3]))


def _naive(A, B):
    n = len(A)
    return [[csum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    *(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
      for _ in range(2)))))
@settings(max_examples=60)
def test_mat_mul_equals_the_naive_sum_on_dense_matrices(AB):
    A, B = AB
    assert matrices_equal(mat_mul(A, B), _naive(A, B))


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    *(st.tuples(st.permutations(range(n)), st.lists(st.integers(0, 11), min_size=n, max_size=n))
      for _ in range(2)))))
@settings(max_examples=60)
def test_mat_mul_equals_the_naive_sum_on_monomial_matrices(perms):
    # one nonzero entry per row and column: every product entry is a lone
    # product or 0
    def monomial(p, ks):
        n = len(p)
        return [[CycloNum(12, {ks[i]: 1}) if p[i] == j else CycloNum.zero() for j in range(n)]
                for i in range(n)]

    A, B = (monomial(*x) for x in perms)
    C = mat_mul(A, B)
    assert matrices_equal(C, _naive(A, B))
    assert sum(bool(x.coeffs) for row in C for x in row) == len(A)


def test_a_dropped_scalar_term_is_located(monkeypatch):
    # one sigma's closed form loses one term of its folded scalar: the
    # closed-form check of verify --mode theta fails at that sigma alone
    f = QuadField(15)
    target = next(s for s in sweep_sigmas(f) if s.c == 5)
    terms = thetamat.theta_terms

    def dropped(field, sigma):
        scalar, light = terms(field, sigma)
        if sigma != target:
            return scalar, light
        (k, _), *rest = scalar.coeffs.items()
        return CycloNum(scalar.order, {k: Fraction(c, scalar.den) for k, c in rest}), light

    monkeypatch.setattr(thetamat, "theta_terms", dropped)
    assert len(terms(f, target)[0].coeffs) > 1
    rep = run_mode("theta", 15, 1, seed=0)
    assert rep["failures"] == [{"check": "closed", "sigma": list(target.entries())}]
