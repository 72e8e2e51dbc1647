"""The ten headline verification campaigns, one test per criterion.

Each test is exhaustive at the documented window sizes and uses exact
cyclotomic arithmetic unless the criterion itself is about a numeric
approximation.  A summary table with one pass/fail line per criterion is
printed at the end of the run (see conftest.py).
"""

import math
import random
from fractions import Fraction

from sympy import primerange

from hermlift.arith import divisors
from hermlift.charsums import check_closed_form, gauss_sum, norm_sum, salie_check
from hermlift.criterion import (inner_sum_closed, inner_sum_direct,
                                random_gamma0, sweep_sigmas, verify_criterion)
from hermlift.hecke import (beta_Tp, coset_reps, verify_beta_conditions,
                            verify_reps_distinct)
from hermlift.ikeda import fQ_coeff, fstar_coeff, fstar_plus_check, rho_coeff, synthetic_eigendata
from hermlift.lift import (AlphaSeries, HermitianCoeffKey, beta_from_alpha,
                           epsilon_T, maass_coeff, plus_coeff_from_alpha,
                           special_jacobi_alpha, theta_decompose)
from hermlift.plusform import build_Pm, eisenstein_star, slash_eval
from hermlift.quadfield import QuadField, a_D, chi_component, classes
from hermlift.thetamat import (Mat2Z, mat_mul, matrices_equal, theta_eval,
                               theta_matrix, theta_matrix_closed, theta_slash)

ALL_D = (3, 4, 7, 8, 11, 15, 19, 20, 23, 24)
SMALL_D = (3, 4, 7, 8)


def small_coprime_level(D):
    return next(N for N in range(2, 12) if math.gcd(N, D) == 1)


def test_c01_arithmetic_criterion_sweep():
    """Exact delta identity over the full representative sweep, all ten
    discriminants, two levels each; float mode agrees to 1e-9 on small D."""
    for D in ALL_D:
        f = QuadField(D)
        rep = verify_criterion(f, 1, seed=0, translates=3)
        assert rep["failures"] == [], (D, rep["failures"][:3])
        rep = verify_criterion(f, small_coprime_level(D), seed=1, translates=1)
        assert rep["failures"] == [], (D, rep["failures"][:3])
    for D in SMALL_D:
        f = QuadField(D)
        rep = verify_criterion(f, 1, seed=0, arithmetic="float", translates=2)
        assert rep["failures"] == [], (D, rep["failures"][:3])


def closed_vs_direct_failures(Ds=ALL_D):
    """c02's check: the (D, sigma, u, w) where the closed and direct A_u differ."""
    out = []
    for D in Ds:
        f = QuadField(D)
        cls = classes(f)
        for sigma in sweep_sigmas(f):
            if sigma.c <= 0 or D % sigma.c != 0:
                continue
            for u in cls:
                for w in cls:
                    lhs = inner_sum_direct(f, sigma, u, w)
                    rhs = inner_sum_closed(f, sigma, u, w)
                    if not (lhs - rhs).is_zero():
                        out.append((D, sigma.entries(), u.key, w.key))
    return out


def test_c02_inner_sums_closed_vs_direct():
    """inner_sum_closed equals the defining double sum for ALL class pairs
    and ALL swept sigma, covering the odd case and both even branches."""
    assert closed_vs_direct_failures() == []


def test_c03_theta_matrix_coherence():
    """Homomorphism on 20 random pairs per discriminant, closed form equals
    the defining sum on the sweep, and the numeric functional equation holds
    to 1e-6 at three sample points for three matrices."""
    for D in ALL_D:
        f = QuadField(D)
        rng = random.Random(D)
        done = 0
        while done < 20:
            g1 = random_gamma0(f, rng)
            g2 = random_gamma0(f, rng)
            if abs((g1 * g2).c) > 4 * D:
                continue  # identity is c-independent; keep the sum tractable
            lhs = theta_matrix(f, g1 * g2)
            rhs = mat_mul(theta_matrix(f, g1), theta_matrix(f, g2))
            assert matrices_equal(lhs, rhs), (D, g1.entries(), g2.entries())
            done += 1
        for sigma in sweep_sigmas(f):
            if sigma.c <= 0 or D % sigma.c != 0:
                continue
            assert matrices_equal(theta_matrix(f, sigma),
                                  theta_matrix_closed(f, sigma)), (D, sigma.entries())
    pts = [(0.13 + 1.2j, 0.08 + 0.03j, -0.05 + 0.06j),
           (-0.4 + 0.9j, 0.0 + 0.0j, 0.1 + 0.0j),
           (0.02 + 1.6j, -0.07 + 0.02j, 0.03 - 0.04j)]
    mats = (Mat2Z(0, -1, 1, 0), Mat2Z(1, 1, 0, 1), Mat2Z(1, 0, 1, 1))
    for D in (3, 8, 15):
        f = QuadField(D)
        cls = classes(f)
        for sigma in mats:
            M = theta_matrix(f, sigma)
            for tau, z, w in pts:
                for u_i, u in enumerate(cls):
                    lhs = theta_slash(f, u, sigma, tau, z, w, radius=20)
                    rhs = sum(
                        M[u_i][v_i].embed() * theta_eval(f, v, tau, z, w, radius=20)
                        for v_i, v in enumerate(cls)
                    )
                    assert abs(lhs - rhs) < 1e-6, (D, sigma.entries(), tau, u_i)


def salie_failures():
    """c04's check: the (p, x, y, z) whose Salie identity fails."""
    return [(p, x, y, z) for p in (3, 5, 7, 11, 13) for x in range(p) for y in range(p)
            for z in range(1, p) if not salie_check(p, x, y, z)[2]]


def test_c04_salie_sums_exhaustive():
    """Twisted quadratic exponential sums equal their closed form for
    p in {3,5,7,11,13} and every (x, y, z mod p) with p not dividing z."""
    assert salie_failures() == []


def gauss_failures():
    """c05's check: the (D, m) whose Gauss sum fails either closed form."""
    out = []
    for D in ALL_D:
        f = QuadField(D)
        for m in divisors(D):
            if m == 1 or math.gcd(m, D // m) != 1:
                continue
            psi = chi_component(f, m)
            G = gauss_sum(psi)
            if not ((G * G - psi(-1) * m).is_zero() and check_closed_form(psi)):
                out.append((D, m))
    return out


def test_c05_gauss_sum_closed_forms():
    """G(psi_m)^2 = psi_m(-1) m exactly and the embedding is eps*sqrt(m)
    within 1e-9, for every admissible component m of every discriminant."""
    assert gauss_failures() == []


def norm_sum_failures():
    """c06's check: the (D, N, t) whose norm sum is not chi(N) * N."""
    out = []
    for D in ALL_D:
        f = QuadField(D)
        for N in range(1, 21):
            if math.gcd(N, D) != 1:
                continue
            for t in range(1, N + 1):
                if math.gcd(t, N) != 1:
                    continue
                s = norm_sum(f, N, t)
                if not (s - f.chi(N) * N).is_zero():
                    out.append((D, N, t))
    return out


def test_c06_norm_sums():
    """The lattice norm sum over O_K mod N equals chi(N) * N exactly for all
    discriminants, N <= 20 coprime to D (even N included), t coprime to N."""
    assert norm_sum_failures() == []


def round_trip_failures():
    """c07's round trip: the (D, level, ell) whose plus-form coefficient does
    not come back from the special-Jacobi alpha."""
    out = []
    for D in ALL_D:
        f = QuadField(D)
        g = eisenstein_star(f, 8, 4 * D)
        for lvl in (1, small_coprime_level(D)):
            alpha = special_jacobi_alpha(f, lvl, g)
            for ell in range(4 * D):
                c = g.coeffs[ell]
                if c is not None and not (plus_coeff_from_alpha(f, lvl, alpha, ell) - c).is_zero():
                    out.append((D, lvl, ell))
    return out


def test_c07_lift_pipeline():
    """Coefficient round trip through the special-Jacobi alpha is exact; the
    theta components depend on the class only through D|u|^2 mod D; the
    divisor-sum coefficient is well-defined on (eps, D det) with >= 3 keys per
    class; the beta identities hold exactly on u <= 50, d <= 200."""
    assert round_trip_failures() == []
    for D in ALL_D:
        f = QuadField(D)
        g = eisenstein_star(f, 8, 4 * D)
        comps = theta_decompose(f, 1, g)
        by_res = {}
        for u, gu in comps.items():
            r = (-u.dnorm) % D
            if r in by_res:
                assert gu is by_res[r] or gu == by_res[r], (D, u.key)
            else:
                by_res[r] = gu
    # well-definedness with at least 3 keys per (eps, ddet) class
    for D in (3, 4, 8):
        f = QuadField(D)
        alpha = AlphaSeries({ell: 3 * ell + 7 for ell in range(400)}, "maass", 399)
        seen = {}
        b = 5
        for ell in range(b + 1):
            for m in range(b + 1):
                for t1 in range(-b, b + 1):
                    for t2 in range(-b, b + 1):
                        if (ell, m, t1, t2) == (0, 0, 0, 0):
                            continue
                        try:
                            key = HermitianCoeffKey(f, ell, m, t1, t2)
                        except ValueError:
                            continue
                        if key.ddet > 399:
                            continue
                        c = maass_coeff(f, 1, 8, alpha, key)
                        seen.setdefault((epsilon_T(key), key.ddet), []).append(c)
        rich = [sig for sig, vals in seen.items() if len(vals) >= 3]
        assert rich and any(sig[0] > 1 for sig in rich), D
        for vals in seen.values():
            assert all(v == vals[0] for v in vals), D
    # beta identities on the required window
    rng = random.Random(77)
    alpha = AlphaSeries(
        {ell: Fraction(rng.randint(-60, 60)) for ell in range(510000)},
        "maass", 509999)
    for N, checked in ((1, 40200), (6, 22914)):
        beta = beta_from_alpha(alpha, 8, N)
        rep = verify_beta_conditions(beta, (50, 200), N)
        assert rep["ok"], rep["failures"][:3]
        assert (rep["checked"], rep["skipped"]) == (checked, 0)


def test_c08_hecke_layer():
    """Coset representative count 1 + p + p^3 + p^4 with exact distinctness
    (one canonical key per coset: the normalized Plücker vector over F_{p^2}
    of the top two rows mod p, their six 2x2 minors scaled by the inverse of
    the first nonzero one; between representatives in Gamma_{0,2}(N), equal
    keys hold exactly when two lie in one coset, so the representatives are
    distinct iff their keys are) at (D=3,p=2), (D=4,p=3), (D=3,p=5) for two levels each, and
    the transformed beta tables satisfy the divisor-sum identities exactly
    for 50 random rational tables at k in {8, 12}.

    Note (p = 5): the operator requires p coprime to the level, so the second
    level is 7 rather than 5 there.
    """
    cases = [(3, 2, 1), (3, 2, 5), (4, 3, 1), (4, 3, 5), (3, 5, 1), (3, 5, 7)]
    for D, p, N in cases:
        f = QuadField(D)
        reps = coset_reps(f, p, N)
        assert len(reps) == 1 + p + p**3 + p**4, (D, p, N)
        assert verify_reps_distinct(f, p, N, reps), (D, p, N)
    for k, trial, f, p, betaF in c08_beta_tables():
        rep = verify_beta_conditions(beta_Tp(betaF, p, f), (10, 24), 1)
        assert rep["ok"], (k, trial, rep["failures"][:2])
        assert (rep["checked"], rep["skipped"]) == (1000, 0), (k, trial)


def c08_beta_tables():
    """c08's 50 tables beta_F at level 1 from random rational alpha, as
    (k, trial, field, p, beta_F), k in {8, 12}, (D, p) = (3, 2) or (4, 3)."""
    rng = random.Random(8)
    for k in (8, 12):
        for trial in range(25):
            D, p = ((3, 2), (4, 3))[trial % 2]
            alpha = AlphaSeries(
                {ell: Fraction(rng.randint(-40, 40)) for ell in range(25000)},
                "maass", 24999)
            yield k, trial, QuadField(D), p, beta_from_alpha(alpha, k, 1)


def check_twist_paths(D):
    """c09's first check: fstar_coeff at both ell and every M <= 500, which
    raises where its subset sum and closed form disagree."""
    ed = synthetic_eigendata(QuadField(D), 7, 1, list(primerange(2, 520)), random.Random(D))
    for ell in (1, next(x for x in (2, 3, 5, 7) if math.gcd(x, D) == 1)):
        for M in range(1, 501):
            fstar_coeff(ed, ell, M)


def test_c09_eigenform_twists():
    """Subset-sum and product evaluations of the averaged twist agree for
    M <= 500; plus-space membership holds to bound 200 for 20 synthetic
    eigenforms per discriminant; the prime-discriminant full twist is
    coefficient conjugation."""
    primes = list(primerange(2, 520))
    for D in ALL_D:
        f = QuadField(D)
        check_twist_paths(D)
        for seed in range(20):
            ed = synthetic_eigendata(f, 7, 1, primes, random.Random(1000 + seed))
            assert fstar_plus_check(ed, 1, 200), (D, seed)
    for D in (3, 7, 11, 19, 23):
        ed = synthetic_eigendata(QuadField(D), 7, 1, primes, random.Random(D))
        for M in range(1, 300):
            assert (fQ_coeff(ed, {D}, M) - rho_coeff(ed, M)).is_zero(), (D, M)


def Pm_failures():
    """c10's congruences: the (D, m, N) whose P_m has det != 1 or breaks
    P_m = J mod m^2 or P_m = I mod (nN)^2."""
    out = []
    for D in ALL_D:
        for m in divisors(D):
            if math.gcd(m, D // m) != 1:
                continue
            for N in (1, 5, 7, 11):
                if math.gcd(N, D) != 1:
                    continue
                P = build_Pm(D, m, N)  # re-verifies the congruences exactly
                a, b, c, d = P.entries()
                M1, M2 = m * m, (D // m * N) ** 2
                if not (P.det() == 1
                        and (a % M1, (b + 1) % M1, (c - 1) % M1, d % M1) == (0, 0, 0, 0)
                        and ((a - 1) % M2, b % M2, c % M2, (d - 1) % M2) == (0, 0, 0, 0)):
                    out.append((D, m, N))
    return out


def test_c10_Pm_construction():
    """P_m satisfies both entry congruences and det = 1 for every admissible
    (D, m, N); the unnormalized slash is associative within 1e-8."""
    assert Pm_failures() == []
    f = QuadField(3)
    g = eisenstein_star(f, 8, 600)
    tau = 0.11 + 1.7j
    for A, B in [(Mat2Z(1, 1, 0, 1), Mat2Z(1, 0, 1, 1)),
                 (Mat2Z(0, -1, 1, 0), Mat2Z(1, 2, 0, 1)),
                 (Mat2Z(2, 1, 1, 1), Mat2Z(1, 0, 0, 2))]:
        lhs = slash_eval(g, A * B, tau)
        Btau = (B.a * tau + B.b) / (B.c * tau + B.d)
        rhs = (B.c * tau + B.d) ** (-g.weight) * slash_eval(g, A, Btau)
        assert abs(lhs - rhs) < 1e-8, (A.entries(), B.entries())
