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
B_u + C_u expression for even D) that absorb the a_w/a_u factor, each a
product of integer (exponent over L, weight) pair lists.  The direct terms
are int64 arrays over (sigma, j) from per-D tables (`_direct_rows`).  Each
route has one exact reader, of a chunk of sigma and all pairs of classes
into a `ResidueRing` (`residues`): `inner_sum_direct` and `inner_sum_closed`.

Values lie in Q(zeta_L), L = D (odd D) or 2D, as phi(L) residues mod a prime
p = 1 (mod L), D (p-1)^2 < 2^63, and every exact verdict on them is
`certified`: residues of X that vanish with ||den X||_1 below the product of
the primes prove X = 0, and a nonzero one proves X != 0.  `verify_criterion`
tests X = A - delta with A_u from `inner_sum_direct`, for chunks of base
sigma and their translates (M(base) from `thetamat.theta_terms`, M(g) from
`thetamat.monomial_terms`); campaign c02 tests X = closed - direct over every
swept sigma with c | D and every class pair.  The float route (arrays per
sigma, `_inner_sums_float` and `_theta_matrix_float`) is the independent
oracle of both readers; it reduces integer exponents before they become floats.
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

from .arith import bezout, component, crt, divisors, factorize, inverse_mod, valuation
from .charsums import gauss_sum
from .quadfield import DiffClass, QuadField, chi_component, classes
from .residues import ResidueRing, certified
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
    (else 1), from the entries mod 8D.  A chunk of sigma misses once and hits
    for each further prime of its certified loop, so a few entries suffice."""
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


@lru_cache(maxsize=4096)
def _gauss_terms(field: QuadField, m: int, b: int) -> tuple[tuple[int, int], ...]:
    """G(psi_m; b) for 0 <= b < m as (exponent over L, weight) pairs, weights nonzero."""
    g = gauss_sum(chi_component(field, m), b)
    return tuple((k * (theta_order(field) // g.order), v) for k, v in g.coeffs.items())


def _product(*factors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The terms of a product of sums of (exponent, weight) pairs."""
    terms = [(0, 1)]
    for factor in factors:
        terms = [(k + k2, v * v2) for k, v in terms for k2, v2 in factor]
    return terms


def _roots(n: int, dn: int, s: int, L: int) -> list[tuple[int, int]]:
    """F: e[s g/n] over the square roots g of dn mod n, n | L."""
    return [(s * g * (L // n), 1) for g in range(n) if (g * g - dn) % n == 0]


def _sigma_factor(field: QuadField, m: int, n: int, b: int, a: int, dn: int) -> list[tuple[int, int]]:
    """m G(psi_n; b) psi_m(a), 0 <= b < n, if m | dn = D|u|^2 - d^2 D|w|^2,
    else no terms: a closed form's factor that depends on u, w through dn only."""
    if dn % m != 0:
        return []
    s = m * chi_component(field, m)(a)
    return [(k, s * v) for k, v in _gauss_terms(field, n, b)]


def _inner_closed_odd(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass):
    """Odd D: the terms of A_u over L = D, and their denominator 1."""
    a, b, c, d = sigma.entries()
    Dstar, dnu, dnw = field.D // c, u.dnorm, w.dnorm
    h = crt([(b % c, c), (inverse_mod(c % Dstar, Dstar), Dstar)])
    F = _roots(Dstar, dnw, 2 * u.key[0] * h * h, field.D)
    K = [(-dnw * d * h - dnu * a * h * h * c, 1)]  # e[-D|w|^2 dh/D - D|u|^2 ah^2/D*]
    return _product(F, K, _sigma_factor(field, c, Dstar, 1 % Dstar, a, dnu - d * d * dnw)), 1


def _inner_closed_even(field: QuadField, sigma: Mat2Z, u: DiffClass, w: DiffClass):
    """Even D: the terms of A_u = B_u + C_u over L = 2D, and their denominator."""
    a, b, c, d = sigma.entries()
    D, e, Dp, chi2 = field.D, field.e, field.Dprime, field.chi2
    dnu, dnw, L = u.dnorm, w.dnorm, 2 * field.D
    f = valuation(c, 2)
    cp = c >> f
    cstar = (2**e) * cp if f >= 1 else cp
    Dstar, Dpc = D // cstar, Dp // cp
    f2 = 0 if f >= 1 else e
    f1 = f2 if dnw == 0 else min(f2, valuation(dnw, 2))

    # F_u: e[(2xg / (c c* 2^f2)) / (D'/c')] over g^2 = D|w|^2 mod D'/c', denominator inverted
    F = _roots(Dpc, dnw, 2 * u.key[1] * inverse_mod(c * cstar * 2**f2, Dpc), L)
    # K_u = e[(-D|u|^2 ab / (D/c')) / c'] e[(-(D|u|^2 a + D|w|^2 d) / (c c*)) / D*]: each
    # denominator is coprime to its modulus and inverted there
    K = [(-dnu * a * b * inverse_mod(D // cp, cp) * (L // cp)
          - (dnu * a + dnw * d) * inverse_mod(c * cstar, Dstar) * (L // Dstar), 1)]

    # E_u, over 2^e
    if c % 2 == 1:
        E = [(k, chi2(dnu + dnw) * v) for k, v in _gauss_terms(field, 2**e, Dp * c % 2**e)]
    elif (dnu - dnw - c) % (2 ** (e - 1)) != 0:
        E = []
    else:
        k, s, v = -Dp * dnw * a * b, L >> e, (2 ** (e - 1)) * chi2(a)
        E = [(k * s, v), ((k + Dp * (dnu - dnw * (2 * b * c + 1) - dnw * c * d)) * s, v * chi2(1 + a * c))]

    # chi_p(D|u|^2) is 0 or 1 for every p | D (a_u >= 1): the denominator of the
    # ratio (1 + chi_2(D|w|^2)) / (1 + chi_2(D|u|^2)) of B_u and of the 1 / (1 + chi_2(D|u|^2)) of C_u
    den, dn = 1 + chi2(dnu), dnu - d * d * dnw
    B = _product(F, K, E, [(0, 1 + chi2(dnw))],
                 _sigma_factor(field, cp, Dpc, (2**f2) * cstar * c % Dpc, a, dn))
    if f1 == 0:
        return B, den

    # C_u branch: only reachable for odd c with 2 | D|w|^2; E'_u is a sign
    if e - f1 < 2:
        sign = (-1) ** (dnu * (e - f1))
    elif dnu % 2 == 0:
        sign = (-1) ** (dnu // 2)
    elif (dnu + dnw // 2) % 2 == 0:
        sign = (-1) ** ((dnu + dnw // 2) // 2) * chi2(-1)
    else:
        raise AssertionError(f"D|u|^2 + D|w|^2 / 2 = {dnu + dnw // 2} is odd")
    C = _product(F, K, [(0, sign)], _sigma_factor(field, c, Dstar, 1 % Dstar, a, dn))
    return B + C, den


def inner_sum_closed(ring: ResidueRing, field: QuadField, sigmas: list[Mat2Z],
                     reps: list[DiffClass]) -> tuple[np.ndarray, list[int], list[int]]:
    """The closed-form A_u (c | D, c > 0) as inner_sum_direct gives the
    direct one, from one scatter-add of every (sigma, u, w)'s pair list."""
    if any(s.c <= 0 or field.D % s.c != 0 for s in sigmas):
        raise ValueError("closed form requires c | D with c > 0")
    closed = _inner_closed_even if field.e else _inner_closed_odd
    sums, dens = zip(*(closed(field, s, u, w) for s in sigmas for u in reps for w in reps))
    res, norms = ring.sums(sums)
    den = math.lcm(*dens)  # 1 + chi_2(D|u|^2) at even D: the same for every sigma
    A = res * np.array([pow(d, -1, ring.p) for d in dens])[:, None] % ring.p
    n = len(reps) ** 2
    bounds = [max(den // d * b for d, b in zip(dens[i:i + n], norms[i:i + n])) for i in range(0, len(dens), n)]
    return A.reshape(len(sigmas), len(reps), len(reps), -1), bounds, [den] * len(sigmas)


def expected_delta(field: QuadField, v: DiffClass, w: DiffClass) -> int:
    return 1 if (w.dnorm - v.dnorm) % field.D == 0 else 0


# ---------------------------------------------------------------------------
# independent floating-point route


def _theta_matrix_float(field: QuadField, sigma: Mat2Z) -> np.ndarray:
    """M(sigma)[u, v] in floating point: sign(a) delta_{u, av} e[ab|u|^2] at
    c = 0, else -i/(c sqrt(D)) sum_{gamma in u + O_K mod c} e[(a|gamma|^2 -
    Tr(gamma conj(v)) + d|v|^2)/c], factored over the prime powers q of |c|.
    With gamma = u + sum_q (c/q) x_q, x_q in O_K/q, the cross terms of
    |gamma|^2 are multiples of c, so for y = a u - v the sum is
      e[(a|u|^2 - Tr(u conj(v)) + d|v|^2)/c] prod_q sum_x e[(a (c/q) |x|^2 + Tr(x conj(y)))/q]:
    q^2 terms per entry and factor instead of c^2.  On the grid x = al + be
    omega the term is N[al, be] e[Tr(al conj(y))/q] e[Tr(be omega conj(y))/q],
    N the grid of e[a (c/q) |x|^2 / q] and the traces read on its two axes,
    so a factor is one matrix product over the entries (u, v).  The integers
    ab D|u|^2 (c = 0), |x|^2 and Tr are reduced mod D resp. q, and a and d
    mod D|c|, before they become floats."""
    a, b, c, d = sigma.entries()
    D, cls = field.D, classes(field)
    tp = 2j * cmath.pi
    if c == 0:  # a = d = sign(a): column v is a e[ab|u|^2] at the row u = av
        rows, dn = np.array([cls.index(v.scaled(a)) for v in cls]), np.array([u.dnorm for u in cls])
        return np.where(np.arange(D)[:, None] == rows, a * np.exp(tp * (a * b % D * dn % D) / D)[:, None], 0j)
    # a and d matter mod D|c| (D|u|^2 is an integer), and a only mod q in a factor
    a, d = a % (D * abs(c)), d % (D * abs(c))
    w1, w2 = np.array([[float(x) for x in u.coords()] for u in cls]).T
    u1, u2, v1, v2 = (np.broadcast_to(x, (D, D)).ravel() for x in (w1[:, None], w2[:, None], w1, w2))
    const = (a * (u1 * u1 + D * u2 * u2) - 2 * (u1 * v1 + D * u2 * v2) + d * (v1 * v1 + D * v2 * v2)) / c
    out = np.exp(tp * const) * (-1j / (c * math.sqrt(D)))
    for p, e in factorize(abs(c)):
        q = p**e
        g1, g2 = lattice_coords(field, cls[0], *np.divmod(np.arange(q * q), q))  # cls[0] = 0
        N = np.exp(tp * (a * (c // q) % q * (g1 * g1 + D * g2 * g2) % q / q)).reshape(q, q)
        y1, y2 = (a % q * u1 - v1)[:, None], (a % q * u2 - v2)[:, None]
        # e[Tr(x conj(y))/q] per entry, on the axes x = al (E1) and x = be omega (E2)
        E1, E2 = (np.exp(tp * (2 * (x1 * y1 + D * x2 * y2) % q / q))
                  for x1, x2 in ((g1[::q], g2[::q]), (g1[:q], g2[:q])))
        out *= ((E1 @ N) * E2).sum(axis=1)
    return out.reshape(D, D)


def _inner_sums_float(field: QuadField, sigma: Mat2Z, reps: list[DiffClass]) -> np.ndarray:
    """A_u in floating point for every pair (u, w) of `reps`, as a complex
    [u, w] array: per j mod D, `sigma_context` and G(psi_m; nc) psi_n(a+cj)
    R e[-D|w|^2 kappa / D] over the classes w, then one product with
    e[D|u|^2 j / D] over j.  Each exponent's integer numerator is reduced mod
    its denominator before it becomes a float."""
    a, _, c, _ = sigma.entries()
    D = field.D
    dn = np.array([x.dnorm for x in reps])
    mult = np.array([x.mult for x in reps])
    e = lambda k, q: np.exp(2j * cmath.pi * k / q)  # noqa: E731  e[k/q], 0 <= k < q
    coef = np.empty((D, len(reps)), complex)
    for j in range(D):
        x = sigma_context(field, sigma, j)
        acj, nc = a + c * j, x.n * c % x.m
        g = e(np.arange(x.m) * nc % x.m, x.m) @ chi_component(field, x.m).table  # G(psi_m; nc)
        R = 1.0
        if x.m == 4 * x.mu:  # R = (1 + chi_2(5 - 2nc) e[-(a+cj) D|w|^2 / 2m]) / 2
            R = (1 + field.chi2(5 - 2 * x.n * c) * e(-(acj % (2 * x.m)) * dn % (2 * x.m), 2 * x.m)) / 2
        coef[j] = (g * chi_component(field, x.n)(acj) * R * (np.gcd(dn, x.m) == x.mu)
                   * e(-(x.kappa % D) * dn % D, D))
    return e(np.outer(dn, range(D)) % D, D) @ coef * mult / mult[:, None]


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


def inner_sum_direct(ring: ResidueRing, field: QuadField, sigmas: list[Mat2Z],
                     reps: list[DiffClass]) -> tuple[np.ndarray, list[int], list[int]]:
    """A_u term by term over j mod D (includes the a_w/a_u factor) for every
    sigma and pair (u, w) of `reps` as residues [sigma, u, w, t], with
    per-sigma bounds and denominators, den * A_u having ||.||_1 <= bound:
    read from `_direct_rows` over sigma, j, w at once."""
    L, p, pw = ring.L, ring.p, ring.pw
    rows, halves = _direct_rows(field.D, tuple(s.entries() for s in sigmas))
    mu, m, n, psi, jL, kL, r, h = np.moveaxis(rows, 2, 0)[..., None]
    dn = np.array([x.dnorm for x in reps])
    # G(psi_m; nc) once per distinct (m, nc mod m)
    c = np.array([s.c % field.D for s in sigmas])[:, None, None]
    keys, at = np.unique(m * field.D + n * c % m, return_inverse=True)
    gauss, gnorms = ring.sums([_gauss_terms(field, k // field.D, k % field.D) for k in keys.tolist()])
    at = at.reshape(m.shape[:2])
    base = gauss[at] * psi % p
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
    norms = np.array(gnorms)[at].sum(axis=1) * max(mults) * (lcm // min(mults))
    return A, (halves * norms).tolist(), (halves * lcm).tolist()


# a chunk's stacked residue arrays, [sigma, D, D, phi(L)] at most, have about this many int64s
_CHUNK = 2**15


def verify_criterion(field: QuadField, N: int = 1, *, seed: int = 0,
                     arithmetic: str = "exact", translates: int = 3) -> dict:
    """Check A = delta for the full representative sweep and random
    Gamma_0(D)-translates; returns a JSON-ready report.

    Exact verdicts are `certified` per internal chunk, so they do not depend on
    its size.  A failure's `lhs` is A's residues and the first prime that sees
    them; `certificate` has L, primes, max B bits.

    The level N is validated (positive, coprime to D) and reported, but it
    does not change the sweep.  translates (per sweep sigma) must be >= 0."""
    if N < 1 or math.gcd(field.D, N) != 1:
        raise ValueError("level N must be a positive integer coprime to D")
    if arithmetic not in ("exact", "float"):
        raise ValueError("arithmetic must be 'exact' or 'float'")
    if translates < 0:
        raise ValueError("translates must be at least 0")
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
        # A = sum_u M_{u,v} A_u / D, one verdict per (v, distinct D|w|^2); the
        # mask is "not below the tolerance", so a NaN fails
        A = _theta_matrix_float(field, sigma).T @ _inner_sums_float(field, sigma, reps)[row_of] / D
        for iv, iw in np.argwhere(~(abs(A - delta) < FLOAT_TOL)):
            fail(sigma, iv, iw, repr(complex(A[iv, iw])))

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

        def read(ring: ResidueRing):
            p, Ms, norms = ring.p, [], []
            for (scalar, terms), (u, _, k, w) in parts:  # u, k, w: [translate, v]
                (s, ns, ds), (M, nM) = ring.of(scalar * Fraction(1, D)), ring.matrix(terms, D)
                M = M * s % p
                Ms += [M, *np.moveaxis(M[:, u] * (w[..., None] % p * ring.pw[k] % p) % p, 1, 0)]
                norms += [(nM * g, ns, ds) for g in [1] + np.abs(w).max(axis=1).tolist()]
            A, nA, dA = inner_sum_direct(ring, field, sigmas, reps)
            return (_contract(np.array(Ms), A[:, row_of]) % p,
                    max(nM * na * ns + da * ds for (nM, ns, ds), na, da in zip(norms, nA, dA)))

        done, bound = certified(rings, L, D, read)
        bounds.append(bound)
        wrong = [((got - delta[:, :, None]) % p).any(axis=3) for p, got in done]
        for i, iv, iw in np.argwhere(np.logical_or.reduce(wrong)):
            k = next(k for k, nz in enumerate(wrong) if nz[i, iv, iw])
            fail(sigmas[i], iv, iw, {"prime": done[k][0], "residues": done[k][1][i, iv, iw].tolist()})

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
