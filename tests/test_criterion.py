import cmath
import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from sympy import isprime

import tests.test_acceptance as acceptance
from hermlift import criterion, cyclotomic, residues, thetamat
from hermlift.arith import bezout
from hermlift.criterion import (expected_delta, inner_sum_closed,
                                inner_sum_direct, random_gamma0, sigma_context,
                                sweep_sigmas, verify_criterion)
from hermlift.cyclotomic import CycloNum, csum, esum, root_of_unity
from hermlift.quadfield import QuadField, chi_component, classes
from hermlift.residues import ResidueRing, certifies_zero
from hermlift.thetamat import (Mat2Z, mat_mul, theta_matrix, theta_matrix_closed,
                               theta_matrix_closed_factored, theta_order, theta_terms)
from tests.conftest import ALL_D, SMALL_D


def closed_vs_direct_translated(D):
    """The (sigma, u, w) where the closed and direct A_u differ, over every
    sweep sigma with c | D, c > 0 and its T^k sigma, T^k = (1 k; 0 1), k = 1, 2,
    decided as c02 decides.  The sweep's sigma at c = 1 all have a = 0; T^k
    sigma has a = k, so the closed forms' a-dependent exponents are not 0 mod
    D at c = 1."""
    f = QuadField(D)
    sigmas = [t for s in sweep_sigmas(f) if s.c > 0 and D % s.c == 0
              for t in [s] + [Mat2Z(1, k, 0, 1) * s for k in (1, 2)]]
    return acceptance.closed_minus_direct(f, sigmas)


def cyclonum_direct(field, sigma, u, w):
    """A_u term by term over j mod D (includes the a_w/a_u factor) as one
    CycloNum: an exponent histogram of sigma's `_direct_rows`, the exact
    oracle of inner_sum_direct.  Both read `_direct_rows`, so the float
    route is the independent oracle of both."""
    rows, halves = criterion._direct_rows(field.D, (sigma.entries(),))
    c, dnu, dnw, two = sigma.c, u.dnorm, w.dnorm, halves[0] == 2
    terms = []
    for mu, m, n, psi, jL, kL, r, h in rows[0].tolist():
        if math.gcd(dnw, m) != mu:
            continue
        k = dnu * jL - dnw * kL
        shifts = (k, k + h - r * dnw) if two else (k,)
        terms += [(e + s, psi * v) for s in shifts for e, v in criterion._gauss_terms(field, m, n * c % m)]
    return esum(theta_order(field), terms) * Fraction(w.mult, int(halves[0]) * u.mult)


def cyclonum_closed(field, sigma, u, w):
    """The closed-form A_u (c | D, c > 0) as one CycloNum: one `esum` of its
    pair list, the exact oracle of inner_sum_closed."""
    closed = criterion._inner_closed_even if field.e else criterion._inner_closed_odd
    return esum(theta_order(field), *closed(field, sigma, u, w))


@pytest.mark.parametrize("D", SMALL_D)
def test_inner_sums_closed_vs_direct(D):
    assert closed_vs_direct_translated(D) == []


@pytest.mark.parametrize("D", (3, 4))
def test_criterion_single_triples(D):
    rep = verify_criterion(QuadField(D), 1, translates=0)
    assert rep["failures"] == []
    assert rep["triples_checked"] == len(sweep_sigmas(QuadField(D))) * D * D


@pytest.mark.parametrize("D", SMALL_D)
def test_criterion_float_agrees(D):
    assert criterion.FLOAT_TOL == 1e-9
    rep = verify_criterion(QuadField(D), 1, arithmetic="float", translates=0)
    assert rep["failures"] == []
    assert rep["triples_checked"] == len(sweep_sigmas(QuadField(D))) * D * D


def test_expected_delta_is_congruence_indicator():
    f = QuadField(7)
    cls = classes(f)
    for v in cls:
        for w in cls:
            d = expected_delta(f, v, w)
            assert d == (1 if (v.dnorm - w.dnorm) % 7 == 0 else 0)


def test_verify_criterion_report_shape():
    f = QuadField(3)
    rep = verify_criterion(f, 1, seed=42, translates=1)
    assert rep["D"] == 3 and rep["N"] == 1
    assert rep["failures"] == []
    assert rep["triples_checked"] > 0
    assert rep["wall_time"] >= 0
    # deterministic given the seed
    rep2 = verify_criterion(f, 1, seed=42, translates=1)
    assert rep2["triples_checked"] == rep["triples_checked"]


def test_verify_criterion_rejects_bad_level():
    f = QuadField(3)
    with pytest.raises(ValueError):
        verify_criterion(f, 6)
    with pytest.raises(ValueError):
        verify_criterion(f, 1, arithmetic="symbolic")


@pytest.mark.parametrize("translates", [-1, -2])
def test_verify_criterion_refuses_negative_translates(translates):
    # a negative count once reported triples_checked 0 (-1) or -686 (-2, D = 7)
    # for a sweep whose base sigma were checked
    with pytest.raises(ValueError, match="translates"):
        verify_criterion(QuadField(7), 1, translates=translates)


def test_random_gamma0_in_group():
    f = QuadField(15)
    rng = random.Random(0)
    for _ in range(50):
        g = random_gamma0(f, rng)
        assert g.det() == 1
        assert g.c % 15 == 0


def _doubled(orig, when):
    """orig with its value doubled at every sigma for which when(sigma)
    holds; orig is an inner sum (field, sigma, u, w), a CycloNum oracle or
    the float route, or inner_sum_direct (ring, field, sigmas, reps) over a
    chunk of sigma."""
    def wrapped(*args):
        out = orig(*args)
        if not isinstance(out, tuple):
            return 2 * out if when(args[1]) else out
        A, bounds, dens = out  # residues [sigma, u, w, t], per-sigma bounds
        hit = [when(sigma) for sigma in args[2]]
        return (np.where(np.array(hit)[:, None, None, None], 2 * A % args[0].p, A),
                [2 * b if h else b for b, h in zip(bounds, hit)], dens)
    return wrapped


def _c_divides_D(D):
    return lambda sigma: sigma.c > 0 and D % sigma.c == 0


@pytest.mark.parametrize("arithmetic, target",
                         [("exact", "inner_sum_direct"), ("float", "_inner_sums_float")])
def test_verify_criterion_reports_injected_fault(monkeypatch, arithmetic, target):
    # double A_u wherever c | D: then A = 2*delta, so exactly the triples
    # with delta = 1 and such sigma must fail, with located witnesses
    D = 7
    monkeypatch.setattr(criterion, target, _doubled(getattr(criterion, target), _c_divides_D(D)))
    rep = verify_criterion(QuadField(D), 1, seed=0, arithmetic=arithmetic,
                           translates=1)
    assert rep["failures"]
    for fail in rep["failures"]:
        assert set(fail) == {"sigma", "v", "w", "lhs", "expected"}
        c = fail["sigma"][2]
        assert c > 0 and D % c == 0
        assert fail["expected"] == 1


def _theta_entry_float(field, sigma, u, v):
    """M(sigma)[u][v] in floating point, one entry and one lattice point at a time."""
    a, b, c, d = sigma.entries()
    D = field.D
    e = lambda x: cmath.exp(2j * cmath.pi * x)  # noqa: E731
    if c == 0:
        return (1 if a > 0 else -1) * e(a * b * u.dnorm / D) if v.scaled(a).key == u.key else 0j
    v1, v2 = (float(x) for x in v.coords())
    u1, u2 = (float(x) for x in u.coords())
    out = 0j
    for x in range(abs(c)):  # gamma = u + x + y*omega, 1 and omega along (1, i sqrt(D))
        for y in range(abs(c)):
            g1 = u1 + x + (y / 2 if field.e == 0 else 0)
            g2 = u2 + y / 2
            out += e((a * (g1 * g1 + D * g2 * g2) - 2 * (g1 * v1 + D * g2 * v2)
                      + d * (v1 * v1 + D * v2 * v2)) / c)
    return -1j / (c * math.sqrt(D)) * out


def _sigma_with_c(c, d):
    """A sigma = (a b; c d) of determinant 1, gcd(c, d) = 1."""
    _, a, b = bezout(d, -c)  # d a - c b = 1
    sigma = Mat2Z(a, b, c, d)
    assert sigma.det() == 1
    return sigma


def test_float_theta_matrix_equals_the_entrywise_sum():
    # every sweep sigma of D = 7 and two translates of each, so c runs over
    # 0, 1, 7 and translates with |c| up to D^2; then |c| composite (42, 63),
    # a prime power (49) and negative at D = 7, and three prime factors at D = 8,
    # each against the unfactored sum
    f, rng = QuadField(7), random.Random(7)
    sigmas = [s * g for s in sweep_sigmas(f) for g in [criterion.IDENTITY] + [random_gamma0(f, rng)
                                                                            for _ in range(2)]]
    assert {s.c for s in sigmas} >= {0, 1, 7} and max(abs(s.c) for s in sigmas) > 7
    cases = [(f, s) for s in sigmas] + [(f, _sigma_with_c(c, d)) for c, d in
                                        ((42, 5), (63, 2), (49, 3), (-42, 11), (-63, 4))]
    cases += [(QuadField(8), _sigma_with_c(c, d)) for c, d in ((30, 7), (-60, 7))]
    for f, sigma in cases:
        cls = classes(f)
        M = criterion._theta_matrix_float(f, sigma)
        assert type(M) is np.ndarray and M.dtype == complex and M.shape == (f.D, f.D)
        for i, u in enumerate(cls):
            for j, v in enumerate(cls):
                assert abs(M[i][j] - _theta_entry_float(f, sigma, u, v)) < 1e-9, (sigma.entries(), i, j)


def test_float_route_reports_perturbed_lattice_term(monkeypatch):
    # move the last point of each factor's grid O_K/q by 1/4 along 1: only
    # entries with c != 0 read a grid, so every witness is at such a sigma
    orig = criterion.lattice_coords
    moved_grids = []

    def moved(field, u, al, be):
        g1, g2 = orig(field, u, al, be)
        g1 = g1.copy()
        g1[-1] += 0.25
        moved_grids.append(len(g1))
        return g1, g2

    monkeypatch.setattr(criterion, "lattice_coords", moved)
    rep = verify_criterion(QuadField(7), 1, arithmetic="float", translates=0)
    assert max(moved_grids) > 1
    assert rep["failures"]
    for fail in rep["failures"]:
        assert set(fail) == {"sigma", "v", "w", "lhs", "expected"}
        assert fail["sigma"][2] != 0
        assert not abs(complex(fail["lhs"]) - fail["expected"]) < 1e-9


def test_float_theta_matrix_is_factored(monkeypatch):
    # at D = 24 and |c| = 864 = 2^5 3^3 the unfactored sum takes D^2 c^2 =
    # 576 * 746,496 complex exponentials; the factored one at most D^2 sum q^2
    D, sigma = 24, Mat2Z(-181, -128, 864, 611)
    assert sigma.det() == 1
    count, exp = [0], np.exp

    def counted(x, *args, **kwargs):
        count[0] += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    M = criterion._theta_matrix_float(QuadField(D), sigma)
    assert 0 < count[0] <= D * D * (32**2 + 27**2)
    exact = theta_matrix(QuadField(D), sigma)
    assert max(abs(M[i][j] - exact[i][j].embed()) for i in range(D) for j in range(D)) < 1e-9


@pytest.mark.parametrize("D", (8, 24))
def test_float_inner_sums_keep_their_precision_at_large_entries(D):
    # each exponent's integer numerator is reduced mod its denominator before
    # it becomes a float: with (a + cj) D|w|^2 passed unreduced, A_u at these
    # sigma was off by 2.83 at D = 8 and by up to 15.7 at D = 24
    f = QuadField(D)
    cls = classes(f)
    for x in (10**20, 2**61):
        for sigma in (Mat2Z(x + 1, x, 1, 1), Mat2Z(1 - x, -x, x, 1 + x)):
            assert sigma.det() == 1
            A = criterion._inner_sums_float(f, sigma, cls)
            exact = np.array([[cyclonum_direct(f, sigma, u, w).embed() for w in cls] for u in cls])
            assert np.abs(A - exact).max() < 1e-9, sigma.entries()


@pytest.mark.parametrize("D", (7, 8, 24))
def test_float_theta_matrix_keeps_its_precision_at_c_0(D):
    # at c = 0 ab D|u|^2 is reduced mod D before it becomes a float; passed
    # unreduced, M(sigma) at b = 10^20 was off by 2.0
    f = QuadField(D)
    for a in (1, -1):
        sigma = Mat2Z(a, 10**20, 0, a)
        M, exact = criterion._theta_matrix_float(f, sigma), theta_matrix(f, sigma)
        assert max(abs(M[i, j] - exact[i][j].embed()) for i in range(D) for j in range(D)) < 1e-9


def test_float_verdicts_fail_a_nan(monkeypatch):
    # a NaN is not below the tolerance: with A_u NaN at each sigma with c | D,
    # every (v, w) of each such sigma fails with a located witness, and no
    # other sigma does
    D, cls = 7, classes(QuadField(7))
    orig, hit, checked = criterion._inner_sums_float, _c_divides_D(D), []

    def nan_at_hits(field, sigma, reps):
        checked.append((sigma.entries(), len(reps)))
        A = orig(field, sigma, reps)
        return np.full_like(A, np.nan) if hit(sigma) else A

    monkeypatch.setattr(criterion, "_inner_sums_float", nan_at_hits)
    rep = verify_criterion(QuadField(D), 1, arithmetic="float", translates=1)
    expected = Counter()
    for entries, n in checked:
        if hit(Mat2Z(*entries)):
            expected[entries] += len(cls) * n
    assert expected and len(expected) < len(set(checked))
    assert Counter(tuple(fail["sigma"]) for fail in rep["failures"]) == expected
    for fail in rep["failures"]:
        assert set(fail) == {"sigma", "v", "w", "lhs", "expected"}
        assert cmath.isnan(complex(fail["lhs"]))


def test_direct_rows_are_bounded_and_keep_their_hits(monkeypatch):
    # the access that remains, a chunk of sigma read once per prime of the
    # certified loop: one miss per chunk, and a hit for each further prime.
    # One base group per chunk gives more chunks than the bound, and primes
    # of 11 bits need two of them for some chunks
    f = QuadField(7)
    monkeypatch.setattr(criterion, "_CHUNK", 1)
    monkeypatch.setattr(residues, "_WORD", 2**24)
    kernel = _kernel_calls(monkeypatch)
    criterion._direct_rows.cache_clear()
    verify_criterion(f, 1, seed=3, translates=1)
    info = criterion._direct_rows.cache_info()
    chunks = len(sweep_sigmas(f))
    assert info.maxsize is not None and info.maxsize <= 16
    assert info.misses == chunks > info.maxsize
    assert info.hits == len(kernel) - chunks > 0


@pytest.mark.parametrize("D, values, keys", [(8, 8, 6), (20, 19, 9)])
def test_inner_sum_direct_depends_on_the_classes_only_mod_D(D, values, keys):
    # verify_criterion evaluates one class per value of D|.|^2 mod D.  At
    # even D the canonical D|u|^2 is not reduced mod D, so this is not a
    # tautology: there are more distinct values than keys.  Equal residues
    # of two values with den ||.||_1 <= B each prove them equal when 2B < p
    f = QuadField(D)
    cls = classes(f)
    assert (len({u.dnorm for u in cls}), len({u.dnorm % D for u in cls})) == (values, keys)
    rng = random.Random(D)
    sigmas = [t for s in sweep_sigmas(f) for t in (s, s * random_gamma0(f, rng))]
    ring = ResidueRing(theta_order(f), D)
    A, bounds, _ = inner_sum_direct(ring, f, sigmas, cls)
    assert 2 * max(bounds) < ring.p
    for sigma, A_sigma in zip(sigmas, A):
        first = {}
        for iu, u in enumerate(cls):
            for iw, w in enumerate(cls):
                y = first.setdefault((u.dnorm % D, w.dnorm % D), A_sigma[iu, iw])
                assert (A_sigma[iu, iw] == y).all(), (sigma.entries(), u.key, w.key)


def _mutated(func, old, new):
    """func recompiled from its source with the one occurrence of `old`
    replaced by `new`, in its own module's namespace."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1
    scope = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, scope)
    return scope[func.__name__]


def test_c02_locates_a_flipped_chi2_in_R(monkeypatch):
    # chi_2(5 - 2nc) negated, h -> h + L/2 where m = 4 mu: among SMALL_D
    # only D = 8 has such a j (mu = 2, m = 8), at every witness's sigma
    orig = criterion._direct_rows

    def flipped(D, entries):
        rows, halves = orig(D, entries)
        rows = rows.copy()  # columns mu, m, ..., h
        rows[..., 7] = np.where(rows[..., 1] == 4 * rows[..., 0], (rows[..., 7] + D) % (2 * D), rows[..., 7])
        return rows, halves

    monkeypatch.setattr(criterion, "_direct_rows", flipped)
    got = acceptance.closed_vs_direct_failures(SMALL_D)
    assert len(got) == 64 and {D for D, *_ in got} == {8}
    for D, sigma, u, w in got:
        rows = orig(D, (sigma,))[0]
        assert (rows[..., 1] == 4 * rows[..., 0]).any(), sigma
        assert {u, w} <= {x.key for x in classes(QuadField(D))}


def test_c02_locates_a_dropped_C_branch(monkeypatch):
    # C_u is reached only for odd c with 2 | D|w|^2: the even D fail there
    monkeypatch.setattr(criterion, "_inner_closed_even",
                        _mutated(criterion._inner_closed_even, "return B + C, den\n", "return B, den\n"))
    got = acceptance.closed_vs_direct_failures(SMALL_D)
    assert [x for x in got if x[0] == 4] and {D for D, *_ in got} <= {4, 8}
    assert len([x for x in got if x[0] == 4]) == 32
    for D, sigma, u, w in got:
        dnorm = {x.key: x.dnorm for x in classes(QuadField(D))}
        assert sigma[2] == 1 and dnorm[w] % 2 == 0 and u in dnorm, (D, sigma, u, w)


def test_a_flipped_a_h2_sign_is_located(monkeypatch):
    # e[+D|u|^2 a h^2 / D*] for e[-D|u|^2 a h^2 / D*] in the odd closed form.
    # At c = D the exponent D|u|^2 a h^2 c is 0 mod D, and c02's sweep has a = 0
    # at c = 1, so at prime D only the T^k sigma see the fault, at c = 1
    monkeypatch.setattr(criterion, "_inner_closed_odd",
                        _mutated(criterion._inner_closed_odd, "- dnu * a * h * h * c,", "+ dnu * a * h * h * c,"))
    got = {D: closed_vs_direct_translated(D) for D in SMALL_D}
    assert sum(map(len, got.values())) == 624 and {D for D, x in got.items() if x} == {3, 7}
    for D, witnesses in got.items():
        dnorm = {x.key: x.dnorm for x in classes(QuadField(D))}
        for (a, b, c, d), u, w in witnesses:
            assert c == 1 and a % D and dnorm[u] % D and w in dnorm, (D, (a, b, c, d), u, w)
    # c02 itself sees it at the composite odd D = 15, where a = 0 mod c only
    got = acceptance.closed_vs_direct_failures((15,))
    assert len(got) == 1648 and {sigma[2] for _, sigma, _, _ in got} == {3, 5}


def test_c02_sees_a_unit_ratio_in_the_direct_reader(monkeypatch):
    # a_w/a_u taken as 1 in the reader that gives verify_criterion's
    # verdicts: c02 sees it only because it reads that reader.  Every D of
    # SMALL_D has classes of multiplicity 1 and 2, so c02 fails at each, and
    # only at pairs with a_u != a_w
    mults = {D: {x.key: x.mult for x in classes(QuadField(D))} for D in SMALL_D}
    assert all(set(m.values()) == {1, 2} for m in mults.values())
    unit = _mutated(criterion.inner_sum_direct,
                    "ratio = np.array([[w * pow(u, -1, p) % p for w in mults] for u in mults])",
                    "ratio = np.ones((len(mults), len(mults)), dtype=np.int64)")
    monkeypatch.setattr(criterion, "inner_sum_direct", unit)
    got = acceptance.closed_vs_direct_failures(SMALL_D)
    assert {D for D, *_ in got} == set(SMALL_D)
    assert all(mults[D][u] != mults[D][w] for D, _, u, w in got)


def _sigma_context_rows(f, sigma):
    """sigma's direct rows per j from sigma_context, as the per-j loop that the
    vectorised _direct_rows replaced built them, and its halves."""
    a, _, c, _ = sigma.entries()
    D, L = f.D, theta_order(f)
    rows = []
    for j in range(D):
        x = sigma_context(f, sigma, j)
        r = h = 0
        if x.m == 4 * x.mu:
            r = (a + c * j) * (L // (2 * x.m)) % L
            h = 0 if f.chi2(5 - 2 * x.n * c) == 1 else L // 2
        rows.append([x.mu, x.m, x.n, chi_component(f, x.n)(a + c * j), j * (L // D),
                     x.kappa * (L // D), r, h])
    return rows, 2 if any(m == 4 * mu for mu, m, *_ in rows) else 1


@pytest.mark.parametrize("D", ALL_D)
def test_direct_rows_are_the_sigma_context_rows(D):
    # every sweep sigma and 3 seeded translates of each, read in one call:
    # mu, m, n, psi_n(a+cj), jL, kL = kappa L/D (kappa < D <= L), r, h and
    # halves equal sigma_context's.  Three sigma with entries beyond int64,
    # some negative, exercise the reduction mod 8D
    f = QuadField(D)
    rng = random.Random(D)
    sigmas = [t for s in sweep_sigmas(f) for t in [s] + [s * random_gamma0(f, rng) for _ in range(3)]]
    big = 10**20
    sigmas += [Mat2Z(1, big, 0, 1), Mat2Z(big + 1, big, 1, 1), Mat2Z(1 - big, -big, big, 1 + big)]
    rows, halves = criterion._direct_rows(D, tuple(s.entries() for s in sigmas))
    assert rows.dtype == np.int64 and rows.shape == (len(sigmas), D, 8)
    for i, sigma in enumerate(sigmas):
        want, want_halves = _sigma_context_rows(f, sigma)
        assert rows[i].tolist() == want and halves[i] == want_halves, sigma.entries()
    # at even D the CRT branch (m != mu) and the R branch (m = 4 mu, D = 8, 24) occur
    mu, m = rows[..., 0], rows[..., 1]
    assert (m != mu).any() == (f.e > 0)
    assert (m == 4 * mu).any() == (D % 8 == 0)


def test_a_wrong_kappa_trips_its_guard(monkeypatch):
    # kappa + 1 breaks b + d j = kappa (a + c j) mod n wherever n > 1
    wrong = _mutated(criterion._direct_rows.__wrapped__, "kappa = np.where(K > 1,",
                     "kappa = 1 + np.where(K > 1,")
    monkeypatch.setattr(criterion, "_direct_rows", wrong)
    with pytest.raises(AssertionError, match="kappa"):
        verify_criterion(QuadField(15), 1, translates=0)
    f = QuadField(7)
    with pytest.raises(AssertionError, match="kappa"):
        inner_sum_direct(ResidueRing(7, 7), f, sweep_sigmas(f)[1:2], classes(f))


# ---------------------------------------------------------------------------
# the residue kernel against the CycloNum verdict loop it replaced


def cyclonum_verdicts(field, seed, translates, inner_closed=cyclonum_closed,
                      inner_direct=cyclonum_direct):
    """The exact verdict loop that the residue kernel replaced, kept as its
    oracle: CycloNum theta matrices, inner sums and zero tests, with the
    same sweep, translates and order.  Returns (triples_checked, failures as
    (sigma, v, w, expected))."""
    rng = random.Random(seed)
    cls = classes(field)
    D = field.D
    dn_of = [u.dnorm % D for u in cls]
    rep_of = {}
    for i, u in enumerate(cls):
        rep_of.setdefault(dn_of[i], u)
    failures = []

    def check_sigma(sigma, M, inner, scale):
        au = {dnu: {dnw: inner(field, sigma, ru, rw) for dnw, rw in rep_of.items()}
              for dnu, ru in rep_of.items()}
        for iv, v in enumerate(cls):
            col = [(dn_of[i], M[i][iv]) for i in range(D) if M[i][iv].coeffs]
            for dnw, rw in rep_of.items():
                got = scale * csum(m * au[dnu][dnw] for dnu, m in col)
                want = expected_delta(field, v, rw)
                if not (got - want).is_zero():
                    failures.append((sigma.entries(), v.key, rw.key, want))

    sigmas = sweep_sigmas(field)
    for base in sigmas:
        gammas = [random_gamma0(field, rng) for _ in range(translates)]
        if base.c > 0 and D % base.c == 0:
            scalar, M_base = theta_matrix_closed_factored(field, base)
            inner = inner_closed
        else:
            scalar, M_base = CycloNum.from_rational(1), theta_matrix(field, base)
            inner = inner_direct
        scale = scalar * Fraction(1, D)
        check_sigma(base, M_base, inner, scale)
        for g in gammas:
            M_g = theta_matrix_closed(field, g) if g.c > 0 else theta_matrix(field, g)
            check_sigma(base * g, mat_mul(M_base, M_g), inner_direct, scale)
    return (1 + translates) * len(sigmas) * len(cls) ** 2, failures


def _verdicts(rep):
    return rep["triples_checked"], [(tuple(f["sigma"]), tuple(f["v"]), tuple(f["w"]),
                                     f["expected"]) for f in rep["failures"]]


@pytest.mark.parametrize("D", (4, 7, 8, 15))
def test_inner_sums_residues_are_the_direct_sums_within_their_bound(D):
    # entrywise, every sigma read in one chunk: the residues are those of
    # the CycloNum oracle cyclonum_direct, and its value times the kernel's
    # denominator has ||.||_1 within the kernel's bound.  Both read
    # `_direct_rows`, so the float route is the independent oracle
    f = QuadField(D)
    ring = ResidueRing(D if f.e == 0 else 2 * D, D)
    reps = list({u.dnorm % D: u for u in classes(f)}.values())
    rng = random.Random(D)
    sigmas = [t for s in sweep_sigmas(f) for t in (s, s * random_gamma0(f, rng))]
    A, bounds, dens = inner_sum_direct(ring, f, sigmas, reps)
    assert A.shape[:3] == (len(sigmas), len(reps), len(reps))
    for sigma, A_sigma, bound, den in zip(sigmas, A, bounds, dens):
        A_float = criterion._inner_sums_float(f, sigma, reps)
        for iu, u in enumerate(reps):
            for iw, w in enumerate(reps):
                x = cyclonum_direct(f, sigma, u, w)
                assert abs(x.embed() - A_float[iu, iw]) < 1e-9
                assert (ring.of(x)[0] == A_sigma[iu, iw]).all(), (sigma, u.key, w.key)
                assert den % x.den == 0
                assert den // x.den * sum(map(abs, x.coeffs.values())) <= bound


@pytest.mark.parametrize("D", (4, 7, 8, 15))
def test_closed_residues_are_the_closed_sums_within_their_bound(D):
    # entrywise, every sweep sigma with c | D and its T sigma read in one
    # call, every class pair: the residues are those of the CycloNum oracle
    # cyclonum_closed, whose value times the reader's denominator has
    # ||.||_1 within the reader's bound
    f = QuadField(D)
    ring = ResidueRing(theta_order(f), D)
    cls = classes(f)
    sigmas = [t for s in sweep_sigmas(f) if _c_divides_D(D)(s) for t in (s, Mat2Z(1, 1, 0, 1) * s)]
    A, bounds, dens = inner_sum_closed(ring, f, sigmas, cls)
    assert A.shape[:3] == (len(sigmas), D, D)
    for sigma, A_sigma, bound, den in zip(sigmas, A, bounds, dens):
        for iu, u in enumerate(cls):
            for iw, w in enumerate(cls):
                x = cyclonum_closed(f, sigma, u, w)
                assert (ring.of(x)[0] == A_sigma[iu, iw]).all(), (sigma.entries(), u.key, w.key)
                assert den % x.den == 0
                assert den // x.den * sum(map(abs, x.coeffs.values())) <= bound
    with pytest.raises(ValueError, match="c [|] D"):
        inner_sum_closed(ring, f, [criterion.IDENTITY], cls)


@pytest.mark.parametrize("D", ALL_D)
def test_residue_verdicts_equal_the_cyclonum_oracle(D):
    f = QuadField(D)
    assert _verdicts(verify_criterion(f, 1, seed=0, translates=1)) == \
        cyclonum_verdicts(f, 0, 1)


@pytest.mark.parametrize("D", (7, 8, 15))
def test_injected_fault_gives_the_oracle_witnesses(monkeypatch, D):
    # A_u doubled at the sweep's c | D sigma, in both routes
    f = QuadField(D)
    bases = {s.entries() for s in sweep_sigmas(f) if _c_divides_D(D)(s)}
    when = lambda sigma: sigma.entries() in bases  # noqa: E731
    oracle = cyclonum_verdicts(f, 0, 1, _doubled(cyclonum_closed, when),
                               _doubled(cyclonum_direct, when))
    monkeypatch.setattr(criterion, "inner_sum_direct", _doubled(criterion.inner_sum_direct, when))
    got = _verdicts(verify_criterion(f, 1, seed=0, translates=1))
    assert got == oracle and oracle[1]
    assert {w[0] for w in oracle[1]} == bases


def _reports(field, calls):
    out = []
    for N, kw in calls:
        rep = verify_criterion(field, N, **kw)
        del rep["wall_time"]
        out.append(rep)
    return out


def _kernel_calls(monkeypatch):
    """(number of sigma, prime) of each inner_sum_direct call from now on."""
    calls, orig = [], criterion.inner_sum_direct

    def counted(ring, field, sigmas, reps):
        calls.append((len(sigmas), ring.p))
        return orig(ring, field, sigmas, reps)
    monkeypatch.setattr(criterion, "inner_sum_direct", counted)
    return calls


@pytest.mark.parametrize("D", ALL_D)
def test_chunk_size_does_not_change_the_report(monkeypatch, D):
    # c01's calls at the default chunk and at one base group per chunk:
    # the same reports, certificate included
    f = QuadField(D)
    calls = [(1, dict(seed=0, translates=3)),
             (acceptance.small_coprime_level(D), dict(seed=1, translates=1))]
    kernel = _kernel_calls(monkeypatch)
    default = _reports(f, calls)
    assert all(r["failures"] == [] for r in default)
    default_chunks = len(kernel)
    monkeypatch.setattr(criterion, "_CHUNK", 1)
    kernel.clear()
    assert _reports(f, calls) == default
    assert {n for n, _ in kernel} == {4, 2}
    # below D = 23 the default stacks several base groups in some chunk
    assert (default_chunks < len(kernel)) == (D < 23)


@pytest.mark.parametrize("D", (7, 8, 15))
def test_chunk_size_does_not_change_the_witnesses(monkeypatch, D):
    # A_u doubled at the sweep's c | D sigma: the same failures, in the same
    # order, with the same lhs, at the default chunk and at one base group.
    # With primes of 11 bits the bounds need one or two of them, so a chunk
    # takes the second prime for sigma that alone would need only the first
    f = QuadField(D)
    bases = {s.entries() for s in sweep_sigmas(f) if _c_divides_D(D)(s)}
    monkeypatch.setattr(criterion, "inner_sum_direct",
                        _doubled(criterion.inner_sum_direct, lambda s: s.entries() in bases))
    kernel = _kernel_calls(monkeypatch)

    def reports():
        with monkeypatch.context() as small:
            small.setattr(residues, "_WORD", 2**26)
            two = _reports(f, [(1, dict(seed=0, translates=1))])
        return _reports(f, [(1, dict(seed=0, translates=1)), (1, dict(seed=0, translates=3))]) + two

    default = reports()
    assert all(r["failures"] for r in default)
    assert len(default[-1]["certificate"]["primes"]) == 2
    monkeypatch.setattr(criterion, "_CHUNK", 1)
    kernel.clear()
    assert reports() == default
    first, second = default[-1]["certificate"]["primes"]
    assert 0 < sum(p == second for _, p in kernel) < sum(p == first for _, p in kernel)


# ---------------------------------------------------------------------------
# the certificate


@pytest.mark.parametrize("L, terms", [(3, 3), (7, 7), (16, 8), (48, 24)])
def test_prime_is_the_largest_under_the_int64_guard(L, terms):
    ring = ResidueRing(L, terms)
    p = ring.p
    assert isprime(p) and p % L == 1 and terms * (p - 1) ** 2 < 2**63
    q = p + L
    while terms * (q - 1) ** 2 < 2**63:
        assert not isprime(q)
        q += L
    # the residues of e[1/L] are the L-th roots omega^t, t a unit mod L
    roots = ring.pw[1].tolist()
    assert len(set(roots)) == len(roots) == len(ring.units)
    assert all(pow(r, L, p) == 1 and all(pow(r, k, p) != 1 for k in range(1, L))
               for r in roots)


def test_a_multiple_of_p_is_never_certified_zero():
    # every residue of p, and of p*e[3/7] - 2p, vanishes mod p, yet neither
    # is zero: their bounds are not below p, and a second prime sees them
    ring = ResidueRing(7, 7)
    p = ring.p
    for x in (CycloNum.from_rational(p), p * root_of_unity(Fraction(3, 7)) - 2 * p):
        res, bound, den = ring.of(x)
        assert not res.any() and den == 1
        assert not certifies_zero(bound, [p])
        other = ResidueRing(7, 7, below=p)
        assert other.of(x)[0].any() and certifies_zero(bound, [p, other.p])


def test_small_primes_take_the_multi_prime_path(monkeypatch):
    # with primes below 2^11 the bounds (12 bits at D=7) need two primes;
    # the verdicts, with and without an injected fault, stay the same
    f = QuadField(7)
    orig = criterion.inner_sum_direct
    monkeypatch.setattr(criterion, "inner_sum_direct", _doubled(orig, _c_divides_D(7)))
    faulty = verify_criterion(f, 1, seed=0, translates=1)
    monkeypatch.setattr(residues, "_WORD", 2**24)
    small = verify_criterion(f, 1, seed=0, translates=1)
    primes = small["certificate"]["primes"]
    assert len(primes) >= 2 and max(primes) < 2**11
    assert _verdicts(small) == _verdicts(faulty) and faulty["failures"]
    assert {fail["lhs"]["prime"] for fail in small["failures"]} <= set(primes)
    monkeypatch.setattr(criterion, "inner_sum_direct", orig)
    clean = verify_criterion(f, 1, seed=0, translates=1)
    assert clean["failures"] == [] and len(clean["certificate"]["primes"]) >= 2


# ---------------------------------------------------------------------------
# the theta term tables on the exact route


@pytest.mark.parametrize("D", ALL_D)
def test_term_tables_give_the_residues_of_their_cyclonum_reading(D):
    # every sweep sigma and every translate verify_criterion(seed=0,
    # translates=1) draws: the table read straight into residues equals the
    # entrywise residues of the CycloNum matrix read from the same table,
    # and its column bound is that matrix's
    f = QuadField(D)
    ring = ResidueRing(theta_order(f), D)
    rng = random.Random(0)
    for base in sweep_sigmas(f):
        for sigma in (base, random_gamma0(f, rng)):
            res, bound = ring.matrix(theta_terms(f, sigma)[1], D)
            light = (theta_matrix_closed_factored(f, sigma)[1] if sigma.c > 0
                     else theta_matrix(f, sigma))
            norms = [[0] * D for _ in range(D)]
            for u, row in enumerate(light):
                for v, x in enumerate(row):
                    got, norms[u][v], den = ring.of(x)
                    assert den == 1 and (got == res[u, v]).all(), (sigma.entries(), u, v)
            assert bound == max(map(sum, zip(*norms))), sigma.entries()


def test_matrix_bound_is_the_largest_column_sum():
    # entry (0, 1) = 1 - 3 e[1/7] and (1, 1) = 2 e[3/7]: column sums 1 and 6,
    # row sums 5 and 2; the residues are those of each entry
    ring = ResidueRing(7, 7)
    terms = np.array([(0, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, -3), (1, 1, 3, 2)], dtype=np.int64)
    res, bound = ring.matrix(terms, 2)
    assert bound == 6
    e = lambda k: root_of_unity(Fraction(k, 7))  # noqa: E731
    for (u, v), x in {(0, 0): e(0), (0, 1): 1 - 3 * e(1), (1, 0): CycloNum.zero(),
                      (1, 1): 2 * e(3)}.items():
        assert (res[u, v] == ring.of(x)[0]).all(), (u, v)


@pytest.mark.parametrize("D", (8, 15, 24))
def test_exact_route_builds_no_cyclonum_per_entry(monkeypatch, D):
    # the theta matrices reach the residues as term tables: no root of unity
    # is built, and only a few CycloNums per base sigma (its scalar)
    built, roots = [0], []
    raw, init = cyclotomic._raw, CycloNum.__init__

    def counted(make):
        def wrapped(*args):
            built[0] += 1
            return make(*args)
        return wrapped

    monkeypatch.setattr(cyclotomic, "_raw", counted(raw))
    monkeypatch.setattr(CycloNum, "__init__", counted(init))
    for module in (thetamat, criterion, cyclotomic):
        monkeypatch.setattr(module, "root_of_unity", lambda r: roots.append(r), raising=False)
    f = QuadField(D)
    rep = verify_criterion(f, 1, seed=0)
    assert rep["failures"] == [] and roots == []
    assert built[0] < D * len(sweep_sigmas(f)), built[0]


def _f2_sweep(D):
    """The sweep sigma whose closed form takes the f = 2 branch: 4 || c, c < D."""
    return [s for s in sweep_sigmas(QuadField(D)) if 0 < s.c < D and D % s.c == 0 and s.c % 8 == 4]


def _shift_an_f2_exponent(monkeypatch):
    # the monomial root * base of every f = 2 entry moves by 1/L
    shifted = _mutated(thetamat.theta_terms, "[base, base + root] if f == 2",
                       "[base, base + root + Q // L] if f == 2")
    monkeypatch.setattr(thetamat, "theta_terms", shifted)
    monkeypatch.setattr(criterion, "theta_terms", shifted)


def test_c03_locates_a_shifted_f2_exponent(monkeypatch):
    # D = 8 is the first discriminant with an f = 2 sigma; c03 stops there
    _shift_an_f2_exponent(monkeypatch)
    with pytest.raises(AssertionError) as err:
        acceptance.test_c03_theta_matrix_coherence()
    assert str(err.value).splitlines()[0] == str((8, _f2_sweep(8)[0].entries()))


@pytest.mark.parametrize("D", (8, 20, 24))
def test_criterion_locates_a_shifted_f2_exponent(monkeypatch, D):
    # witnesses at every f = 2 base sigma (c03's located sigma among them at
    # D = 8), and elsewhere only at the translates of those
    f = QuadField(D)
    bases = {s.entries() for s in _f2_sweep(D)}
    rng = random.Random(0)
    allowed = bases | {(s * g).entries() for s in sweep_sigmas(f)
                       for g in [random_gamma0(f, rng)] if s.entries() in bases}
    _shift_an_f2_exponent(monkeypatch)
    got = {tuple(x["sigma"]) for x in verify_criterion(f, 1, seed=0, translates=1)["failures"]}
    assert bases and bases <= got <= allowed


# ---------------------------------------------------------------------------
# exactness guards raise, also under python -O


def test_exactness_guards_raise():
    ring = ResidueRing(3, 3)
    with pytest.raises(ValueError, match="outside"):
        ring.of(root_of_unity(Fraction(1, 9)))
    with pytest.raises(ValueError, match="outside"):
        thetamat._exact(3, np.array([0, 3, 4]), 9)
    with pytest.raises(ValueError, match="denominator"):
        ring.of(CycloNum.from_rational(Fraction(1, ring.p)))
    with pytest.raises(OverflowError):
        ResidueRing(7, 2**62)
    with pytest.raises(ValueError, match="non-exact"):
        cyclotomic._poly_divmod_exact([1, 0, 1], [1, 1])


def test_q_zeta_L_guard_survives_python_O():
    code = textwrap.dedent("""
        from fractions import Fraction
        import numpy as np
        from hermlift import thetamat
        from hermlift.cyclotomic import root_of_unity
        from hermlift.residues import ResidueRing
        assert False  # stripped by -O
        for call in (lambda: ResidueRing(3, 3).of(root_of_unity(Fraction(1, 9))),
                     lambda: thetamat._exact(3, np.array([4]), 9)):
            try:
                call()
            except ValueError:
                continue
            raise SystemExit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
