"""The arithmetic criterion: A(sigma, v, w) = delta^{mod D}_{D|w|^2, D|v|^2}.

For sigma = (a b; c d) in SL2(Z) and classes v, w of [d_K], define per
j mod D the data mu = gcd(a+cj, D), m = component(D, mu), n = D/m and an
integer kappa with

    kappa = (b+dj)/(a+cj)                      mod n, and additionally
    kappa = ((b+dj+c)/2^f)/((a+cj)/2^f)        mod m/mu   when m != mu,

(f = val_2(a+cj); when a+cj = 0 take mu = m = D, n = 1, kappa = 0).  The
criterion left-hand side is

    A = sum_u M_{u,v}(sigma)/D * A_u,
    A_u = sum_{j mod D, gcd(D|w|^2, m) = mu}
              (a_w/a_u) R_sigma(w,j) G(psi_m; nc) psi_n(a+cj)
              e[|u|^2 j - |w|^2 kappa],

and the statement verified here is A = 1 if D|w|^2 = D|v|^2 mod D, else 0.

A_u also has closed forms when c | D, c > 0 (one for odd D; a two-branch
B_u + C_u expression for even D); both routes are implemented and compared
exactly.  The closed forms absorb the a_w/a_u factor.

`verify_criterion` decides exactly in residues (`residues`): each value of
one sigma lies in Q(zeta_L), L = D (odd D) or 2D, stored as its phi(L)
residues mod a prime p = 1 (mod L) with D (p-1)^2 < 2^63, so no int64 sum of
D residue products wraps.  With B >= ||den (A - delta)||_1 tracked in Python
ints, vanishing residues prove A = delta once B is below the product of the
primes used; a nonzero residue proves A != delta.  A failure's `lhs` is the
residue vector of A with its prime.  The float route is an independent oracle.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .arith import bezout, component, crt, divisors, inverse_mod, valuation
from .charsums import gauss_sum
from .cyclotomic import CycloNum, csum, esum, ext_root, root_of_unity
from .quadfield import DiffClass, QuadField, chi_component, classes
from .residues import ResidueRing, certifies_zero
from .thetamat import (IDENTITY, Mat2Z, lattice_coords, theta_matrix, theta_matrix_closed,
                       theta_matrix_closed_factored)


class SigmaContext(NamedTuple):
    """Per-j data entering the transformation formula."""

    j: int
    mu: int
    m: int
    n: int
    kappa: int


def sigma_context(field: QuadField, sigma: Mat2Z, j: int) -> SigmaContext:
    if sigma.det() != 1:
        raise ValueError("sigma must have determinant 1")
    a, b, c, d = sigma.entries()
    D = field.D
    acj = a + c * j
    bdj = b + d * j
    if acj == 0:
        return SigmaContext(j, D, D, 1, 0)
    mu = math.gcd(acj, D)
    m = component(D, mu)
    n = D // m
    if m != mu:
        f = valuation(acj, 2)
        kappa = crt([
            (bdj * inverse_mod(acj, n), n),
            (((bdj + c) >> f) * inverse_mod(acj >> f, m // mu), m // mu),
        ])
    else:
        kappa = bdj * inverse_mod(acj, n) % n if n > 1 else 0
    assert (bdj - kappa * acj) % n == 0
    return SigmaContext(j, mu, m, n, kappa)


def R_factor(field: QuadField, sigma: Mat2Z, ctx: SigmaContext, v: DiffClass) -> CycloNum:
    """R_sigma(v, j): 1 unless m = 4*mu, else
    (1 + e[-(a+cj) D|v|^2 / (2m)] chi_2(5 - 2nc)) / 2."""
    if ctx.m != 4 * ctx.mu:
        return CycloNum.from_rational(1)
    a, _, c, _ = sigma.entries()
    acj = a + c * ctx.j
    tw = root_of_unity(Fraction(-acj * v.dnorm, 2 * ctx.m))
    return (1 + tw * field.chi2(5 - 2 * ctx.n * c)) * Fraction(1, 2)


@lru_cache(maxsize=8)
def _j_table(D: int, entries: tuple[int, int, int, int]):
    """Per j: (context, G(psi_m; nc) * psi_n(a+cj)) with sigma fixed.  Its
    callers take one sigma at a time, so a few entries keep every hit while
    the random translates of a long campaign cannot grow it."""
    field = QuadField(D)
    sigma = Mat2Z(*entries)
    a, _, c, _ = entries
    out = []
    for j in range(D):
        ctx = sigma_context(field, sigma, j)
        g = gauss_sum(chi_component(field, ctx.m), ctx.n * c)
        out.append((ctx, g * chi_component(field, ctx.n)(a + c * j)))
    return tuple(out)


def inner_sum_direct(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass) -> CycloNum:
    """A_u assembled term by term over j mod D (includes the a_w/a_u factor)."""
    D = field.D
    return csum(
        base * R_factor(field, sigma, ctx, w)
        * root_of_unity(Fraction(u.dnorm * ctx.j - w.dnorm * ctx.kappa, D))
        for ctx, base in _j_table(D, sigma.entries())
        if math.gcd(w.dnorm, ctx.m) == ctx.mu
    ) * Fraction(w.mult, u.mult)


def _inner_closed_odd(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass) -> CycloNum:
    a, b, c, d = sigma.entries()
    D = field.D
    Dstar = D // c
    if (u.dnorm - d * d * w.dnorm) % c != 0:
        return CycloNum.zero()
    h = crt([(b % c, c), (inverse_mod(c % Dstar, Dstar), Dstar)])
    x = u.key[0]
    F = esum(Dstar, ((2 * x * h * h * g, 1)
                     for g in range(Dstar) if (g * g - w.dnorm) % Dstar == 0))
    return (
        c
        * F
        * gauss_sum(chi_component(field, Dstar))
        * chi_component(field, c)(a)
        * root_of_unity(Fraction(-w.dnorm * d * h, D) + Fraction(-u.dnorm * a * h * h, Dstar))
    )


def _inner_closed_even(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass) -> CycloNum:
    a, b, c, d = sigma.entries()
    D, e, Dp = field.D, field.e, field.Dprime
    f = valuation(c, 2)
    cp = c >> f
    cstar = (2**e) * cp if f >= 1 else cp
    Dstar = D // cstar
    f2 = 0 if f >= 1 else e
    f1 = f2 if w.dnorm == 0 else min(f2, valuation(w.dnorm, 2))
    dnu, dnw = u.dnorm, w.dnorm
    chi2 = field.chi2

    # F_u: sum over square roots of D|w|^2 mod D'/c'
    Dpc = Dp // cp
    x = u.key[1]
    # e[(2xg / (c c* 2^f2)) / (D'/c')]: the denominator is inverted mod D'/c'
    inv = pow(c * cstar * (2**f2), -1, Dpc)
    F = esum(Dpc, ((2 * x * g * inv, 1) for g in range(Dpc) if (g * g - dnw) % Dpc == 0))
    K = (
        ext_root(Fraction(-dnu * a * b, D // cp), cp)
        * ext_root(Fraction(-dnu * a, c * cstar), Dstar)
        * ext_root(Fraction(-dnw * d, c * cstar), Dstar)
    )

    # E_u
    if c % 2 == 1:
        E = gauss_sum(chi_component(field, 2**e), Dp * c) * chi2(dnu + dnw)
    else:
        if (dnu - dnw - c) % (2 ** (e - 1)) != 0:
            E = CycloNum.zero()
        else:
            E = (
                (2 ** (e - 1))
                * chi2(a)
                * root_of_unity(Fraction(-Dp * dnw * a * b, 2**e))
                * (
                    1
                    + root_of_unity(
                        Fraction(Dp * (dnu - dnw * (2 * b * c + 1) - dnw * c * d), 2**e)
                    )
                    * chi2(1 + a * c)
                )
            )

    # chi_p(D|u|^2) is 0 or 1 for every p | D (a_u >= 1), so these are safe
    ratio = Fraction(1 + chi2(dnw), 1 + chi2(dnu))
    B = CycloNum.zero()
    if (dnu - d * d * dnw) % cp == 0:
        B = (
            cp
            * F
            * K
            * E
            * ratio
            * gauss_sum(chi_component(field, Dpc), (2**f2) * cstar * c)
            * chi_component(field, cp)(a)
        )
    if f1 == 0:
        return B

    # C_u branch: only reachable for odd c with 2 | D|w|^2
    if e - f1 == 0:
        Eprime = CycloNum.from_rational(1)
    elif e - f1 == 1:
        Eprime = CycloNum.from_rational((-1) ** dnu)
    elif dnu % 2 == 0:
        Eprime = CycloNum.from_rational((-1) ** (dnu // 2))
    else:
        ex = dnu + dnw // 2
        assert ex % 2 == 0
        Eprime = CycloNum.from_rational((-1) ** (ex // 2) * chi2(-1))
    C = CycloNum.zero()
    if (dnu - d * d * dnw) % c == 0:
        C = (
            c
            * F
            * K
            * Eprime
            * Fraction(1, 1 + chi2(dnu))
            * gauss_sum(chi_component(field, Dstar))
            * chi_component(field, c)(a)
        )
    return B + C


def inner_sum_closed(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass) -> CycloNum:
    """Closed-form A_u for c | D, c > 0."""
    a, b, c, d = sigma.entries()
    if c <= 0 or field.D % c != 0:
        raise ValueError("closed form requires c | D with c > 0")
    if field.e == 0:
        return _inner_closed_odd(field, sigma, u, w)
    return _inner_closed_even(field, sigma, u, w)


def expected_delta(field: QuadField, v: DiffClass, w: DiffClass) -> int:
    return 1 if (w.dnorm - v.dnorm) % field.D == 0 else 0


# ---------------------------------------------------------------------------
# independent floating-point route


def _theta_entry_float(field: QuadField, sigma: Mat2Z, u: DiffClass, v: DiffClass) -> complex:
    a, b, c, d = sigma.entries()
    D = field.D
    tp = 2j * cmath.pi
    if c == 0:  # sign(a) delta_{u, av} e[ab|u|^2]
        return ((1 if a > 0 else -1) * cmath.exp(tp * a * b * u.dnorm / D)
                if v.scaled(a).key == u.key else 0j)
    v1, v2 = (float(x) for x in v.coords())
    g1, g2 = lattice_coords(field, u, *np.divmod(np.arange(c * c), abs(c)))
    num = a * (g1 * g1 + D * g2 * g2) - 2 * (g1 * v1 + D * g2 * v2) + d * (v1 * v1 + D * v2 * v2)
    return (-1j / (c * math.sqrt(D))) * complex(np.exp(tp / c * num).sum())


def _j_data_float(field: QuadField, sigma: Mat2Z) -> list[tuple[SigmaContext, complex]]:
    """Per j: (context, G(psi_m; nc) psi_n(a+cj)), the Gauss sum in floating point."""
    a, _, c, _ = sigma.entries()
    ctxs = [sigma_context(field, sigma, j) for j in range(field.D)]
    return [(x, sum(chi_component(field, x.m)(s) * cmath.exp(2j * cmath.pi * s * x.n * c / x.m)
                    for s in range(x.m)) * chi_component(field, x.n)(a + c * x.j)) for x in ctxs]


def _inner_sum_float(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass,
                     j_data: list[tuple[SigmaContext, complex]]) -> complex:
    """A_u in floating point from sigma's `_j_data_float`."""
    a, b, c, d = sigma.entries()
    D = field.D
    tp = 2j * cmath.pi
    au = 0j
    for ctx, base in j_data:
        if math.gcd(w.dnorm, ctx.m) != ctx.mu:
            continue
        r = 1.0
        if ctx.m == 4 * ctx.mu:
            r = 0.5 * (1 + cmath.exp(-tp * (a + c * ctx.j) * w.dnorm / (2 * ctx.m))
                       * field.chi2(5 - 2 * ctx.n * c))
        au += base * r * cmath.exp(tp * (u.dnorm * ctx.j - w.dnorm * ctx.kappa) / D)
    return au * w.mult / u.mult


# ---------------------------------------------------------------------------
# verification harness


def sweep_sigmas(field: QuadField) -> list[Mat2Z]:
    """Identity plus one sigma = (a b; c d), det 1, for every c | D, c > 0 and
    every d mod D with gcd(c, d) = 1 (completed via Bezout)."""
    out = [IDENTITY]
    D = field.D
    for c in divisors(D):
        for d in range(D):
            if math.gcd(c, d) != 1:
                continue
            _, x, y = bezout(d, -c)  # d*x - c*y = 1
            out.append(Mat2Z(x, y, c, d))
    return out


def random_gamma0(field: QuadField, rng: random.Random) -> Mat2Z:
    """A random element of Gamma_0(D), drawn with lower-left entry 0 or D so
    that its theta matrix has a cheap (monomial) form."""
    D = field.D
    if rng.random() < 0.25:
        s = rng.randint(-3, 3)
        e = 1 if rng.random() < 0.5 else -1
        return Mat2Z(e, s, 0, e)
    while True:
        x = rng.randint(-D, D)
        if x != 0 and math.gcd(x, D) == 1:
            break
    t = inverse_mod(x % D, D) + D * rng.randint(0, 1)
    return Mat2Z(x, (x * t - 1) // D, D, t)


def inner_sums_residues(ring: ResidueRing, field: QuadField, sigma: Mat2Z,
                        reps: list[DiffClass]) -> tuple[np.ndarray, int, int]:
    """A_u for every pair (u, w) of `reps` as residues [u, w, t], with a bound
    and a denominator: den * A_u has ||.||_1 <= bound.  The terms are those of
    inner_sum_direct, built from integer exponent tables reduced mod L."""
    D, L, p, pw = field.D, ring.L, ring.p, ring.pw
    a, _, c, _ = sigma.entries()
    dn = [r.dnorm for r in reps]
    base, mask, ex, r_ex, norm, halves = [], [], [], [], 0, 1
    for j in range(D):
        ctx = sigma_context(field, sigma, j)
        m, n, mu = ctx.m, ctx.n, ctx.mu
        g, ng = ring.gauss(chi_component(field, m), n * c)
        base.append(g * chi_component(field, n)(a + c * j) % p)
        mask.append([math.gcd(x, m) == mu for x in dn])
        norm += ng
        # e[-D|w|^2 kappa / D] R, with R = (1 + chi_2(5-2nc) e[-(a+cj) D|w|^2/(2m)])/2
        # when m = 4 mu (L is even, and -1 = e[1/2]) and R = 1 = (1 + e[0])/2 otherwise
        ex.append([-x * ctx.kappa * (L // D) % L for x in dn])
        r, h = 0, 0
        if m == 4 * mu:
            halves, r = 2, (a + c * j) * (L // (2 * m))
            h = 0 if field.chi2(5 - 2 * n * c) == 1 else L // 2
        r_ex.append([(k - r * x + h) % L for k, x in zip(ex[-1], dn)])
    R = (pw[ex] + pw[r_ex]) % p * ((p + 1) // 2) % p
    coef = np.array(base)[:, None, :] * R % p * np.array(mask)[:, :, None]
    # sum_j e[D|u|^2 j / D] coef[j, w]: one product over j per residue index
    E = pw[[[x * j * (L // D) % L for x in dn] for j in range(D)]]
    mults = [r.mult for r in reps]
    ratio = np.array([[w * pow(u, -1, p) % p for w in mults] for u in mults])
    A = np.einsum("jut,jwt->uwt", E, coef) % p * ratio[:, :, None] % p
    # terms: Gauss sum * R (norm 2 over 2) * root of unity; a_w/a_u <= max a/min a
    lcm = math.lcm(*mults)
    return A, halves * norm * max(mults) * (lcm // min(mults)), halves * lcm


def verify_criterion(field: QuadField, N: int = 1, *, seed: int = 0,
                     arithmetic: str = "exact", translates: int = 3,
                     tol: float = 1e-9) -> dict:
    """Check A = delta for the full representative sweep and random
    Gamma_0(D)-translates; returns a JSON-ready report.

    Exact verdicts are residues mod p = 1 (mod L), D (p-1)^2 < 2^63: one holds
    when all residues of A - delta vanish and the bound B is below the product
    of the primes used, more primes being taken while it is not.  A failure's
    `lhs` is A's residues and prime; `certificate` has L, primes, max B bits.

    The level N is validated (positive, coprime to D) and reported, but it
    does not change the sweep."""
    if N < 1 or math.gcd(field.D, N) != 1:
        raise ValueError("level N must be a positive integer coprime to D")
    if arithmetic not in ("exact", "float"):
        raise ValueError("arithmetic must be 'exact' or 'float'")
    rng = random.Random(seed)
    t0 = time.monotonic()
    cls = classes(field)
    D = field.D
    L = D if field.e == 0 else 2 * D
    failures, rings, bounds = [], [], [0]

    # A_u and the expected delta depend on u, w only through D|u|^2 mod D
    # (and the multiplicity, itself a function of that value), so evaluate
    # per distinct value and fan the verdicts out to all classes
    dn_of = [u.dnorm % D for u in cls]
    values = sorted(set(dn_of), key=dn_of.index)  # in order of first class
    reps = [cls[dn_of.index(x)] for x in values]
    row_of = [values.index(x) for x in dn_of]
    delta = np.array([[expected_delta(field, v, w) for w in reps] for v in cls])

    def fail(sigma: Mat2Z, iv: int, iw: int, lhs) -> None:
        failures.append({"sigma": list(sigma.entries()), "v": list(cls[iv].key),
                         "w": list(reps[iw].key), "lhs": lhs, "expected": int(delta[iv, iw])})

    def check_float(sigma: Mat2Z) -> None:
        # A = sum_u M_{u,v} A_u / D, one verdict per (v, distinct D|w|^2)
        M = [[_theta_entry_float(field, sigma, u, v) for v in cls] for u in cls]
        j_data = _j_data_float(field, sigma)
        au = [[_inner_sum_float(field, sigma, ru, rw, j_data) for rw in reps] for ru in reps]
        for iv, iw in np.ndindex(delta.shape):
            got = sum(M[i][iv] * au[row_of[i]][iw] for i in range(D)) / D
            if not abs(got - delta[iv, iw]) < tol:
                fail(sigma, iv, iw, repr(got))

    def check_exact(sigma: Mat2Z, base_parts, M_g) -> None:
        # A [v, w, t] mod one prime after another, until their product
        # exceeds the bound on ||den (A - delta)||_1
        done = []
        while not done or not certifies_zero(bounds[-1], [r.p for r, _ in done]):
            if len(done) == len(rings):  # a kernel sum has at most D terms
                rings.append(ResidueRing(L, D, below=rings[-1].p if rings else None))
            ring = rings[len(done)]
            (s, ns, ds), (M, nM, dM) = base_parts(ring)
            if M_g is not None:
                Mg, ng, dg = ring.matrix(M_g)
                M, nM, dM = np.einsum("ikt,kvt->ivt", M, Mg) % ring.p, nM * ng, dM * dg
            A, nA, dA = inner_sums_residues(ring, field, sigma, reps)
            done.append((ring, np.einsum("ivt,iwt->vwt", M, A[row_of]) % ring.p * s % ring.p))
            bounds.append(nM * nA * ns + dM * dA * ds)
        wrong = [((got - delta[:, :, None]) % r.p).any(axis=2) for r, got in done]
        for iv, iw in np.argwhere(np.logical_or.reduce(wrong)):
            k = next(k for k, nz in enumerate(wrong) if nz[iv, iw])
            fail(sigma, iv, iw, {"prime": done[k][0].p, "residues": done[k][1][iv, iw].tolist()})

    sigmas = sweep_sigmas(field)
    for base in sigmas:
        gammas = [random_gamma0(field, rng) for _ in range(translates)]
        if arithmetic == "float":
            for sigma in [base] + [base * g for g in gammas]:
                check_float(sigma)
            continue
        # A = scale * sum_u M_{u,v} A_u: the dense Gauss-sum factor of M(base)
        # is in the scale, its light entries (monomials, short sums) in M
        scalar, light = (theta_matrix_closed_factored(field, base) if base.c > 0
                         else (CycloNum.from_rational(1), theta_matrix(field, base)))
        base_parts = cache(lambda ring: (ring.of(scalar * Fraction(1, D)), ring.matrix(light)))
        check_exact(base, base_parts, None)
        for g in gammas:
            # M(base*g) = M(base) M(g): the homomorphism is pinned exactly by
            # separate tests, and M(g) is monomial (g's c is 0 or D)
            M_g = theta_matrix_closed(field, g) if g.c > 0 else theta_matrix(field, g)
            check_exact(base * g, base_parts, M_g)
    cert = {"order": L, "primes": [r.p for r in rings], "max_bound_bits": max(bounds).bit_length()}
    return {"D": D, "N": N, "triples_checked": (1 + translates) * len(sigmas) * D * D,
            "failures": failures, **({"certificate": cert} if rings else {}),
            "wall_time": time.monotonic() - t0}
