import random
from fractions import Fraction

import pytest
from sympy import isprime

from hermlift import criterion, residues
from hermlift.criterion import (expected_delta, inner_sum_closed,
                                inner_sum_direct, random_gamma0, sweep_sigmas,
                                verify_criterion)
from hermlift.cyclotomic import CycloNum, csum, root_of_unity
from hermlift.quadfield import QuadField, classes
from hermlift.residues import ResidueRing, certifies_zero
from hermlift.thetamat import (Mat2Z, mat_mul, theta_matrix, theta_matrix_closed,
                               theta_matrix_closed_factored)
from tests.conftest import ALL_D, SMALL_D


@pytest.mark.parametrize("D", SMALL_D)
def test_inner_sums_closed_vs_direct(D):
    f = QuadField(D)
    cls = classes(f)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        for u in cls:
            for w in cls:
                lhs = inner_sum_direct(f, sigma, u, w)
                rhs = inner_sum_closed(f, sigma, u, w)
                assert (lhs - rhs).is_zero(), (D, sigma.entries(), u.key, w.key)


@pytest.mark.parametrize("D", (3, 4))
def test_criterion_single_triples(D):
    rep = verify_criterion(QuadField(D), 1, translates=0)
    assert rep["failures"] == []
    assert rep["triples_checked"] == len(sweep_sigmas(QuadField(D))) * D * D


@pytest.mark.parametrize("D", SMALL_D)
def test_criterion_float_agrees(D):
    rep = verify_criterion(QuadField(D), 1, arithmetic="float", translates=0, tol=1e-9)
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


def test_random_gamma0_in_group():
    f = QuadField(15)
    rng = random.Random(0)
    for _ in range(50):
        g = random_gamma0(f, rng)
        assert g.det() == 1
        assert g.c % 15 == 0


def _doubled(orig, when):
    """orig with its value doubled at every sigma for which when(sigma)
    holds; orig is an inner sum (field, sigma, u, w) in either arithmetic or
    inner_sums_residues (ring, field, sigma, reps)."""
    def wrapped(*args):
        out = orig(*args)
        sigma = next(x for x in args if isinstance(x, Mat2Z))
        if not when(sigma):
            return out
        if isinstance(out, tuple):  # (residues, bound, den)
            A, bound, den = out
            return 2 * A % args[0].p, 2 * bound, den
        return 2 * out
    return wrapped


def _c_divides_D(D):
    return lambda sigma: sigma.c > 0 and D % sigma.c == 0


@pytest.mark.parametrize("arithmetic, target",
                         [("exact", "inner_sums_residues"), ("float", "_inner_sum_float")])
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


def test_float_route_reports_perturbed_lattice_term(monkeypatch):
    # move the last lattice point of the float defining sum by 1/4 along 1:
    # only entries with c != 0 see it, so every witness is at such a sigma
    orig = criterion.lattice_coords

    def moved(field, u, al, be):
        g1, g2 = orig(field, u, al, be)
        g1 = g1.copy()
        g1[-1] += 0.25
        return g1, g2

    monkeypatch.setattr(criterion, "lattice_coords", moved)
    rep = verify_criterion(QuadField(7), 1, arithmetic="float", translates=0)
    assert rep["failures"]
    for fail in rep["failures"]:
        assert set(fail) == {"sigma", "v", "w", "lhs", "expected"}
        assert fail["sigma"][2] != 0
        assert not abs(complex(fail["lhs"]) - fail["expected"]) < 1e-9


def test_j_table_is_bounded_and_keeps_its_hits():
    # c02's access pattern, every (u, w) of one sigma before the next: one
    # miss per distinct sigma, and more sigmas than the bound
    f = QuadField(7)
    cls = classes(f)
    rng = random.Random(3)
    sigmas = [s * random_gamma0(f, rng) for s in sweep_sigmas(f)]
    criterion._j_table.cache_clear()
    for sigma in sigmas:
        for u in cls:
            for w in cls:
                inner_sum_direct(f, sigma, u, w)
    info = criterion._j_table.cache_info()
    assert info.maxsize is not None and info.maxsize <= 16
    assert info.misses == len({s.entries() for s in sigmas}) > info.maxsize


# ---------------------------------------------------------------------------
# the residue kernel against the CycloNum verdict loop it replaced


def cyclonum_verdicts(field, seed, translates, inner_closed=inner_sum_closed,
                      inner_direct=inner_sum_direct):
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
    # entrywise: the residues are those of inner_sum_direct, and its value
    # times the kernel's denominator has ||.||_1 within the kernel's bound
    f = QuadField(D)
    ring = ResidueRing(D if f.e == 0 else 2 * D, D)
    reps = list({u.dnorm % D: u for u in classes(f)}.values())
    rng = random.Random(D)
    for sigma in [t for s in sweep_sigmas(f) for t in (s, s * random_gamma0(f, rng))]:
        A, bound, den = criterion.inner_sums_residues(ring, f, sigma, reps)
        for iu, u in enumerate(reps):
            for iw, w in enumerate(reps):
                x = inner_sum_direct(f, sigma, u, w)
                assert (ring.of(x)[0] == A[iu, iw]).all(), (sigma, u.key, w.key)
                assert den % x.den == 0
                assert den // x.den * sum(map(abs, x.coeffs.values())) <= bound


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
    oracle = cyclonum_verdicts(f, 0, 1, _doubled(inner_sum_closed, when),
                               _doubled(inner_sum_direct, when))
    monkeypatch.setattr(criterion, "inner_sums_residues",
                        _doubled(criterion.inner_sums_residues, when))
    got = _verdicts(verify_criterion(f, 1, seed=0, translates=1))
    assert got == oracle and oracle[1]
    assert {w[0] for w in oracle[1]} == bases


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
    orig = criterion.inner_sums_residues
    monkeypatch.setattr(criterion, "inner_sums_residues", _doubled(orig, _c_divides_D(7)))
    faulty = verify_criterion(f, 1, seed=0, translates=1)
    monkeypatch.setattr(residues, "_WORD", 2**24)
    small = verify_criterion(f, 1, seed=0, translates=1)
    primes = small["certificate"]["primes"]
    assert len(primes) >= 2 and max(primes) < 2**11
    assert _verdicts(small) == _verdicts(faulty) and faulty["failures"]
    assert {fail["lhs"]["prime"] for fail in small["failures"]} <= set(primes)
    monkeypatch.setattr(criterion, "inner_sums_residues", orig)
    clean = verify_criterion(f, 1, seed=0, translates=1)
    assert clean["failures"] == [] and len(clean["certificate"]["primes"]) >= 2
