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
exactly.  The closed forms absorb the a_w/a_u factor.  The direct terms are
int64 arrays over (sigma, j) built from per-D tables (`_direct_rows`) and
read two ways: one exponent histogram per sigma (`inner_sum_direct`) and
residues over a chunk of sigma and all pairs at once (`inner_sums_residues`).

`verify_criterion` decides exactly in residues (`residues`): each value of
one sigma lies in Q(zeta_L), L = D (odd D) or 2D, stored as its phi(L)
residues mod a prime p = 1 (mod L) with D (p-1)^2 < 2^63, so no int64 sum of
D residue products wraps.  With B >= ||den (A - delta)||_1 tracked in Python
ints, vanishing residues prove A = delta once B is below the product of the
primes used; a nonzero residue proves A != delta.  It takes a chunk of base
sigma and their translates at once (the chunk size is internal), with
M(base) as the term table and scalar of `thetamat.theta_terms`, no CycloNum
per entry, and a translate's monomial M(g) (`thetamat.monomial_terms`, one
call per chunk) as a column gather from it.  A
failure's `lhs` is A's residue vector with its prime.  The float route
(`_inner_sum_float`) is the independent oracle of both readers.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .arith import bezout, component, crt, divisors, inverse_mod, valuation
from .charsums import gauss_sum
from .cyclotomic import CycloNum, esum, ext_root, root_of_unity
from .quadfield import DiffClass, QuadField, chi_component, classes
from .residues import ResidueRing, certifies_zero
from .thetamat import IDENTITY, Mat2Z, lattice_coords, monomial_terms, theta_order, theta_terms

FLOAT_TOL = 1e-9  # |A - delta| below which the float route passes a verdict

# per-j data entering the transformation formula
SigmaContext = namedtuple("SigmaContext", "j mu m n kappa")


def sigma_context(field: QuadField, sigma: Mat2Z, j: int) -> SigmaContext:
    if sigma.det() != 1:
        raise ValueError("sigma must have determinant 1")
    (a, b, c, d), D = sigma.entries(), field.D
    acj, bdj = a + c * j, b + d * j
    mu = math.gcd(acj, D)  # D at a + cj = 0: m = D, n = 1, kappa = 0
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
    if (bdj - kappa * acj) % n:
        raise AssertionError(f"kappa = {kappa} fails b + d j = kappa (a + c j) mod {n}")
    return SigmaContext(j, mu, m, n, kappa)


# the direct A_u terms as one int64 array [sigma, j mod D, column], exponents over L,
# the columns mu, m, n, psi_n(a+cj), j L/D, kappa L/D and r, h for R = (1 + e[(h -
# r D|w|^2)/L])/2: h = L/2 exactly when chi_2(5 - 2nc) = -1 if m = 4 mu, r = (a+cj)
# L/(2m) mod L there, and r = h = 0 (R = 1 = (1 + e[0])/2) otherwise


@cache
def _tables(D: int) -> tuple[np.ndarray, ...]:
    """Per D, at q | D and x < D: component(D, q), x^-1 mod q (0 off the
    units) and psi_q(x) (q prime to D/q); chi_2 mod 8; L."""
    field, comp, inv, psi = QuadField(D), np.zeros(D + 1, np.int64), *np.zeros((2, D + 1, D), np.int64)
    for q in divisors(D):
        comp[q] = component(D, q)
        inv[q] = [inverse_mod(x, q) if math.gcd(x, q) == 1 else 0 for x in range(D)]
        psi[q] = [chi_component(field, q)(x) if math.gcd(q, D // q) == 1 else 0 for x in range(D)]
    return comp, inv, psi, np.array([field.chi2(x) if field.e else 1 for x in range(8)]), theta_order(field)


@lru_cache(maxsize=8)
def _direct_rows(D: int, entries: tuple[tuple[int, int, int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of these sigma and `halves` [sigma], 2 when some row has m = 4 mu
    (else 1), from the entries mod 8D.  verify_criterion's chunks miss, and
    inner_sum_direct reads one sigma at a time: a few entries keep its hits."""
    comp, inv, psi_tab, chi2, L = _tables(D)
    a, b, c, d = (np.array(entries, dtype=object) % (8 * D)).astype(np.int64).T[:, :, None]
    j = np.arange(D)
    acj, bdj = (a + c * j) % (8 * D), (b + d * j) % (8 * D)
    mu = np.gcd(acj, D)  # D at a + cj = 0 mod D, where m = D, n = 1, kappa = 0
    m, n = comp[mu], D // comp[mu]
    kappa = bdj * inv[n, acj % n] % n
    # m != mu only at the 2-part, K = m/mu in {2, 4} and 2^f = 2-part of a + cj:
    # kappa = ((b+dj+c)/2^f)/((a+cj)/2^f) mod K as well, joined by CRT
    K, two_f = m // mu, np.where(acj > 0, acj & -acj, 1)
    k2 = (bdj + c) // two_f * inv[K, acj // two_f % K] % K
    kappa = np.where(K > 1, kappa + n * ((k2 - kappa) * inv[K, n % K] % K), kappa)
    if ((bdj - kappa * acj) % n).any():
        raise AssertionError("kappa fails b + d j = kappa (a + c j) mod n")
    quad = m == 4 * mu
    h = np.where(quad & (chi2[(5 - 2 * n * c) % 8] != 1), L // 2, 0)
    rows = np.stack([mu, m, n, psi_tab[n, acj % D], np.broadcast_to(j * (L // D), acj.shape),
                     kappa * (L // D), np.where(quad, acj * (L // (2 * m)) % L, 0), h], axis=2)
    return rows, np.where(quad.any(axis=1), 2, 1)


@cache
def _gauss(field: QuadField, m: int, b: int) -> CycloNum:
    """G(psi_m; b) for 0 <= b < m, one CycloNum per (field, m, b mod m)."""
    return gauss_sum(chi_component(field, m), b)


@cache
def _closed_factor(field: QuadField, m: int, n: int, b: int, a: int) -> CycloNum:
    """m G(psi_n; b) psi_m(a), b mod n, a mod m: a closed form's sigma-only factor."""
    return m * _gauss(field, n, b) * chi_component(field, m)(a)


@cache
def _gauss_terms(field: QuadField, m: int, b: int) -> tuple[tuple[int, int], ...]:
    """G(psi_m; b) as (exponent over L, weight) pairs, weights nonzero."""
    g = _gauss(field, m, b)
    return tuple((k * (theta_order(field) // g.order), v) for k, v in g.coeffs.items())


def inner_sum_direct(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass) -> CycloNum:
    """A_u term by term over j mod D (includes the a_w/a_u factor): one
    exponent histogram over L of sigma's `_direct_rows`."""
    rows, halves = _direct_rows(field.D, (sigma.entries(),))
    c, dnu, dnw, two = sigma.c, u.dnorm, w.dnorm, halves[0] == 2
    terms = []
    for mu, m, n, psi, jL, kL, r, h in rows[0].tolist():
        if math.gcd(dnw, m) != mu:
            continue
        k = dnu * jL - dnw * kL
        shifts = (k, k + h - r * dnw) if two else (k,)
        terms += [(e + s, psi * v) for s in shifts for e, v in _gauss_terms(field, m, n * c % m)]
    return esum(theta_order(field), terms) * Fraction(w.mult, int(halves[0]) * u.mult)


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
    return (F * _closed_factor(field, c, Dstar, 1 % Dstar, a % c)
            * root_of_unity(Fraction(-w.dnorm * d * h, D) + Fraction(-u.dnorm * a * h * h, Dstar)))


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
        E = _gauss(field, 2**e, Dp * c % 2**e) * chi2(dnu + dnw)
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
        B = F * K * E * ratio * _closed_factor(field, cp, Dpc, (2**f2) * cstar * c % Dpc, a % cp)
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
        if ex % 2:
            raise AssertionError(f"D|u|^2 + D|w|^2 / 2 = {ex} is odd")
        Eprime = CycloNum.from_rational((-1) ** (ex // 2) * chi2(-1))
    C = CycloNum.zero()
    if (dnu - d * d * dnw) % c == 0:
        C = (F * K * Eprime * Fraction(1, 1 + chi2(dnu))
             * _closed_factor(field, c, Dstar, 1 % Dstar, a % c))
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


def _contract(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_i X[s, i, a, t] Y[s, i, b, t] as [s, a, b, t]: one matmul per (s, t)."""
    return np.matmul(X.transpose(0, 3, 2, 1), Y.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)


def inner_sums_residues(ring: ResidueRing, field: QuadField, sigmas: list[Mat2Z],
                        reps: list[DiffClass]) -> tuple[np.ndarray, list[int], list[int]]:
    """A_u for every sigma and pair (u, w) of `reps` as residues [sigma, u, w, t],
    with per-sigma bounds and denominators, den * A_u having ||.||_1 <= bound:
    inner_sum_direct's terms, read from `_direct_rows` over sigma, j, w at once."""
    L, p, pw = ring.L, ring.p, ring.pw
    rows, halves = _direct_rows(field.D, tuple(s.entries() for s in sigmas))
    mu, m, n, psi, jL, kL, r, h = np.moveaxis(rows, 2, 0)[..., None]
    dn = np.array([x.dnorm for x in reps])
    # G(psi_m; nc) once per distinct (m, nc mod m)
    c = np.array([s.c % field.D for s in sigmas])[:, None, None]
    keys, at = np.unique(m * field.D + n * c % m, return_inverse=True)
    gauss = [ring.gauss(chi_component(field, int(k) // field.D), int(k) % field.D) for k in keys]
    at = at.reshape(m.shape[:2])
    base = np.array([g for g, _ in gauss])[at] * psi % p
    # e[-D|w|^2 kappa / D] R [sigma, j, w], R = (1 + e[(h - r D|w|^2)/L])/2
    ex = -dn * kL % L
    R = (pw[ex] + pw[(ex + h - r * dn) % L]) % p * ((p + 1) // 2) % p
    coef = base[:, :, None, :] * R % p * (np.gcd(dn, m) == mu)[..., None]
    # sum_j e[D|u|^2 j / D] coef[sigma, j, w]: one product over j per residue index
    E = pw[dn * jL % L]
    mults = [x.mult for x in reps]
    ratio = np.array([[w * pow(u, -1, p) % p for w in mults] for u in mults])
    A = _contract(E, coef) % p * ratio[:, :, None] % p
    # terms: Gauss sum * R (norm 2 over 2) * root of unity; a_w/a_u <= max a/min a
    lcm = math.lcm(*mults)
    norms = np.array([ng for _, ng in gauss])[at].sum(axis=1) * max(mults) * (lcm // min(mults))
    return A, (halves * norms).tolist(), (halves * lcm).tolist()


# a chunk's stacked residue arrays, [sigma, D, D, phi(L)] at most, have about this many int64s
_CHUNK = 2**15


def verify_criterion(field: QuadField, N: int = 1, *, seed: int = 0,
                     arithmetic: str = "exact", translates: int = 3) -> dict:
    """Check A = delta for the full representative sweep and random
    Gamma_0(D)-translates; returns a JSON-ready report.

    Exact verdicts are residues mod p = 1 (mod L), D (p-1)^2 < 2^63, taken for
    a chunk of base sigma and their translates at once: one holds when all
    residues of A - delta vanish and the bound B is below the product of the
    primes used, more being taken while the chunk's largest B is not.  A zero
    under a certified bound is exact, so nothing depends on the internal chunk
    size.  A failure's `lhs` is A's residues and the first prime that sees
    them; `certificate` has L, primes, max B bits.

    The level N is validated (positive, coprime to D) and reported, but it
    does not change the sweep."""
    if N < 1 or math.gcd(field.D, N) != 1:
        raise ValueError("level N must be a positive integer coprime to D")
    if arithmetic not in ("exact", "float"):
        raise ValueError("arithmetic must be 'exact' or 'float'")
    rng = random.Random(seed)
    t0 = time.monotonic()
    cls = classes(field)
    D, L = field.D, theta_order(field)
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
            if not abs(got - delta[iv, iw]) < FLOAT_TOL:
                fail(sigma, iv, iw, repr(got))

    def check_chunk(groups) -> None:
        # A [sigma, v, w, t] mod one prime after another, until their product
        # exceeds the chunk's largest bound on ||den (A - delta)||_1.  M(base) is
        # its scalar (the dense Gauss-sum factor) times its light terms, and
        # M(base g) = M(base) M(g) (pinned exactly by separate tests) with M(g)
        # monomial, one row (u_v, v, k_v, w_v) per column: M(base)[:, u_v] w_v e[k_v/L]
        sigmas = [s for _, group in groups for s in group]
        tables = monomial_terms(field, [g for gs, _ in groups for g in gs])
        tables = tables.reshape(len(groups), len(groups[0][0]), D, 4)
        parts = [(theta_terms(field, ss[0]), np.moveaxis(t, 2, 0)) for (_, ss), t in zip(groups, tables)]
        done = []
        while not done or not certifies_zero(bounds[-1], [r.p for r, _ in done]):
            if len(done) == len(rings):  # a kernel sum has at most D terms
                rings.append(ResidueRing(L, D, below=rings[-1].p if rings else None))
            ring = rings[len(done)]
            p, Ms, norms = ring.p, [], []
            for (scalar, terms), (u, _, k, w) in parts:  # u, k, w: [translate, v]
                (s, ns, ds), (M, nM) = ring.of(scalar * Fraction(1, D)), ring.matrix(terms, D)
                M = M * s % p
                Ms += [M, *np.moveaxis(M[:, u] * (w[..., None] % p * ring.pw[k] % p) % p, 1, 0)]
                norms += [(nM * g, ns, ds) for g in [1] + np.abs(w).max(axis=1).tolist()]
            A, nA, dA = inner_sums_residues(ring, field, sigmas, reps)
            done.append((ring, _contract(np.array(Ms), A[:, row_of]) % p))
            bounds.append(max(nM * na * ns + da * ds for (nM, ns, ds), na, da in zip(norms, nA, dA)))
        wrong = [((got - delta[:, :, None]) % r.p).any(axis=3) for r, got in done]
        for i, iv, iw in np.argwhere(np.logical_or.reduce(wrong)):
            k = next(k for k, nz in enumerate(wrong) if nz[i, iv, iw])
            fail(sigmas[i], iv, iw, {"prime": done[k][0].p, "residues": done[k][1][i, iv, iw].tolist()})

    groups = []  # (gammas, [base] + [base * g for g in gammas]) per sweep sigma
    for base in sweep_sigmas(field):
        gammas = [random_gamma0(field, rng) for _ in range(translates)]
        groups.append((gammas, [base] + [base * g for g in gammas]))
    if arithmetic == "float":
        for sigma in (s for _, sigmas in groups for s in sigmas):
            check_float(sigma)
    else:  # whole groups per chunk, each sigma's largest array D * D * phi(L)
        per = max(1, _CHUNK // (len(groups[0][1]) * D * D * sum(math.gcd(t, L) == 1 for t in range(L))))
        for i in range(0, len(groups), per):
            check_chunk(groups[i:i + per])
    cert = {"order": L, "primes": [r.p for r in rings], "max_bound_bits": max(bounds).bit_length()}
    return {"D": D, "N": N, "triples_checked": (1 + translates) * len(groups) * D * D,
            "failures": failures, **({"certificate": cert} if rings else {}),
            "wall_time": time.monotonic() - t0}
