"""Theta transformation matrices M_{u,v}(sigma) and numeric theta series.

The defining exponential sum (valid for every sigma in SL2(Z)) is

    M_{u,v} = (-i/(c*sqrt(D))) * sum_{gamma in u + O_K/cO_K}
                  e[(a|gamma|^2 - gamma*conj(v) - conj(gamma)*v + d|v|^2)/c]

for c != 0, and sign(a)*delta_{u,av}*e[ab|u|^2] for c = 0.  For c | D, c > 0
there are closed forms (one for odd D, a two-factor one for even D) which are
much cheaper; both are implemented and cross-checked exactly in the tests.

`theta_terms` is the one builder of every matrix with c = 0 or c | D, c > 0:
M = scalar * light, the light matrix as a term table of int64 rows
(u, v, k, w), the entry (u, v) being the sum of w e[k/L] over its rows,
L = D (odd D) or 2D, built with numpy over the D x D class grid.  Its
exponents are formed over a common denominator and divided down to L
exactly, or it raises ValueError.  Two readers: `ResidueRing.matrix` maps the
table straight to residues on the exact criterion route, and the CycloNum
matrices of `theta_matrix_closed(_factored)` and of `theta_matrix` at c = 0
are one exponent histogram per nonzero entry of it.

The scalar -i/sqrt(D) is represented exactly as -G(chi_K)/D in the cyclotomic
ring (G(chi_K) = i*sqrt(D) since chi_K is odd; see charsums.i_sqrtD).
`theta_matrix` stays the defining sum, the oracle for the closed forms.  Its
exponents are integers over L0 = 4D^2|c|; G(chi_K)'s term chi(k) e[k/D] adds
k L0/D to each, so the prefactor is folded into their int64 counts before any
CycloNum exists, and only entries that stay nonzero are built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import valuation
from .charsums import gauss_sum, i_sqrtD
from .cyclotomic import CycloNum, csum, esum
from .quadfield import DiffClass, QuadField, chi_component, classes


@dataclass(frozen=True)
class Mat2Z:
    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2Z":
        if self.det() != 1:
            raise ValueError("only SL2 matrices are inverted here")
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2Z(1, 0, 0, 1)
J = Mat2Z(0, -1, 1, 0)
T = Mat2Z(1, 1, 0, 1)


# lattice terms per block of the defining sum: int64 temporaries of ~0.25 MB
_BLOCK = 2**12


def _gauss_fold(field: QuadField) -> np.ndarray:
    """W[q, q'] = chi(q' - q): counts over exponents q/D, times W, are G(chi_K) times them."""
    k = np.arange(field.D)
    return np.array(chi_component(field, field.D).table)[(k - k[:, None]) % field.D]


def theta_matrix(field: QuadField, sigma: Mat2Z) -> list[list[CycloNum]]:
    """The D x D matrix (M_{u,v}(sigma)) from the defining sum, rows/columns
    in canonical class order.  For c != 0 the exponents of a block of entries
    form one integer histogram, with the prefactor -G(chi_K)/(Dc) folded in."""
    if sigma.det() != 1:
        raise ValueError("sigma must have determinant 1")
    a, b, c, d = sigma.entries()
    D = field.D
    cls = classes(field)
    if c == 0:
        return _read(field, theta_terms(field, sigma)[1])

    # The lattice sum per entry has |c|^2 terms gamma = u + al + be*omega; scaled
    # by t = 2D, every exponent is an integer over L0 = t^2 |c|.
    t, cabs = 2 * D, abs(c)
    L0 = t * t * cabs
    # only a*nrm and d*nrm enter the exponent, which is taken mod L0
    a, d = a % L0, d % L0
    # gamma = u + al + be*omega in coordinates (g1, g2) along (1, i sqrt(D));
    # odd D: omega = 1/2 + i sqrt(D)/2, even D: omega = i sqrt(D)/2
    U1, U2 = (np.array([int(t * u.coords()[k]) for u in cls], dtype=np.int64) for k in (0, 1))
    # |num| below and the keys, bounded in Python integers, must fit int64
    v1, v2 = int(abs(U1).max()), int(abs(U2).max())
    g1, g2 = v1 + 2 * t * cabs, v2 + t * cabs
    if max(a * (g1 * g1 + D * g2 * g2) + 2 * (g1 * v1 + D * g2 * v2)
           + d * (v1 * v1 + D * v2 * v2), D * D * L0) >= 2**63:
        raise OverflowError(f"theta_matrix: lattice sum for c = {c} exceeds int64")
    al, be = np.divmod(np.arange(cabs * cabs, dtype=np.int64), cabs)
    L1, L2 = t * al + (t // 2) * be * (field.e == 0), (t // 2) * be
    # the prefactor -i/(c sqrt(D)) = -G(chi_K)/(D c) over the denominator D|c|
    M, fold = L0 // D, _gauss_fold(field) * (-1 if c > 0 else 1)
    out = [[CycloNum.zero()] * D for _ in cls]
    per = max(1, _BLOCK // (cabs * cabs))
    for i0 in range(0, D * D, per):
        uv = np.arange(i0, min(i0 + per, D * D))
        u, v = np.divmod(uv, D)
        G1, G2, V1, V2 = U1[u, None] + L1, U2[u, None] + L2, U1[v, None], U2[v, None]
        # t^2 * (a*nrm(gamma) - (gamma*conj(v) + conj(gamma)*v) + d*nrm(v)),
        # to be divided by t^2 * c; the exponent mod L0 is q M + r
        num = a * (G1 * G1 + D * G2 * G2) - 2 * (G1 * V1 + D * G2 * V2) + d * (V1 * V1 + D * V2 * V2)
        q, r = np.divmod((num if c > 0 else -num) % L0, M)
        keys, counts = np.unique((uv[:, None] * M + r) * D + q, return_counts=True)
        # G's term k shifts q by k: per (entry, r), counts over q convolve with W
        ur, j = np.unique(keys // D, return_inverse=True)
        hist = np.zeros((len(ur), D), dtype=np.int64)
        hist[j, keys % D] = counts
        hist = hist @ fold
        j, q = np.nonzero(hist)
        terms: dict[int, dict[int, int]] = {}
        for x, y, n in zip(ur[j].tolist(), q.tolist(), hist[j, q].tolist()):
            terms.setdefault(x // M, {})[y * M + x % M] = n
        # one CycloNum per nonzero entry, of order L0/g, g = gcd(L0, exponents)
        for i, cs in terms.items():
            g = math.gcd(L0, *cs)
            out[i // D][i % D] = CycloNum.from_numerators(
                L0 // g, {e // g: n for e, n in cs.items()}, D * cabs)
    return out


def theta_order(field: QuadField) -> int:
    """L = D (odd D) or 2D: the values of the criterion at one sigma lie in Q(zeta_L)."""
    return field.D if field.e == 0 else 2 * field.D


_ONE = CycloNum.from_rational(1)


def _exact(L: int, num: np.ndarray, Q: int) -> np.ndarray:
    """Exponents num/Q as integers over L | Q; ValueError unless each is exact."""
    if (num % (Q // L)).any():
        raise ValueError("theta entry outside Q(zeta_L)")
    return num // (Q // L) % L


def theta_terms(field: QuadField, sigma: Mat2Z) -> tuple[CycloNum, np.ndarray]:
    """M(sigma) = scalar * light for c = 0 and for c | D, c > 0, with `light`
    as a term table: int64 rows (u, v, k, w), the entry (u, v) being the sum
    of w e[k/L] over its rows, L = theta_order(field).  Entries are monomials
    except at even D, 4 | c < D, where (1 + root)(1 + tail) and root*tail
    give four or two; the dense Gauss-sum factor lives in the scalar."""
    if sigma.det() != 1:
        raise ValueError("sigma must have determinant 1")
    a, b, c, d = sigma.entries()
    D, L = field.D, theta_order(field)
    if c < 0 or (c and D % c):
        raise ValueError("term tables need c = 0 or c | D with c > 0")
    # the class keys (x1, x2) as columns, (0, x) at odd D; class index x1 * half + x2
    half = D // 2 if field.e else D
    X1, X2 = np.divmod(np.arange(D, dtype=np.int64), half)
    if c in (0, D):
        # M_{u,v} = w delta_{u, t v} e[ab|u|^2], (t, w) = (a, sign a) or (d, chi(d))
        t, w = (a, 1 if a > 0 else -1) if c == 0 else (d, field.chi(d))
        u = t % 2 * X1 * half + t % half * X2 % half
        dn = np.array([x.dnorm for x in classes(field)], dtype=np.int64)
        k = a * b % D * dn[u] % D * (L // D)
        return _ONE, np.stack([u, np.arange(D), k, np.full(D, w)], axis=1)
    # exponents over Q, each fraction n/m (m | Q) entering as (Q/m)(n mod m)
    Q = D * c if field.e == 0 else 8 * D * c
    if Q * Q * D >= 2**60:
        raise OverflowError(f"theta_terms: D = {D} exceeds int64")
    a, b, d = a % Q, b % Q, d % Q
    x1, x2, y1, y2 = X1[:, None], X2[:, None], X1[None, :], X2[None, :]
    t2 = (x2 - d * y2) % Q
    q2 = Q // (D * c) * ((a * x2 * x2 - 2 * x2 * y2 + d * y2 * y2) % (D * c))
    if field.e == 0:
        mask, ex = t2 % c == 0, [q2]
        scalar = i_sqrtD(D) * gauss_sum(chi_component(field, c), a) * Fraction(-1, D)
    else:
        f = valuation(c, 2)
        cp = c >> f  # odd part c'
        mask = t2 % cp == 0
        base = Q // 4 * (d * b * y1 * y1 % 4) + q2
        if f == 0:
            ex = [Q // 4 * (c * (a * x1 * x1 - 2 * x1 * y1 + d * y1 * y1) % 4) + q2]
        elif f == 1:
            mask &= ((x1 - d * y1) % 2 == 1) & ((t2 - D // 4) % 2 == 0)
            ex = [base + Q // 8 * ((4 * b * y1 + a * cp) % 8)]
        else:  # f in {2, 3}: (1 + root)(1 + tail) resp. (1 + root) tail
            mask &= ((x1 - d * y1) % 2 == 0) & (t2 % 2 ** (f - 1) == 0)
            root = (Q >> f) * (a * cp * (D // 4 + t2) % 2**f)
            tail = (Q >> f) * (a * cp % 2**f)
            ex = [base + tail, base + root + tail] + ([base, base + root] if f == 2 else [])
        # 1/(i*sqrt(D)) = -i/sqrt(D); 2-power prefactor: 1, 2, 2^{f-2}
        pref = Fraction(1) if f == 0 else Fraction(2) if f == 1 else Fraction(2**f, 4)
        scalar = gauss_sum(chi_component(field, cp), a * (2**f)) * i_sqrtD(D) * (-pref / D)
    u, v = np.nonzero(mask)
    k = np.concatenate([_exact(L, e[u, v], Q) for e in ex])
    return scalar, np.stack([np.tile(u, len(ex)), np.tile(v, len(ex)), k,
                             np.ones(len(k), dtype=np.int64)], axis=1)


def _read(field: QuadField, terms: np.ndarray) -> list[list[CycloNum]]:
    """The CycloNum matrix of a term table: one exponent histogram per entry."""
    L, D = theta_order(field), field.D
    out = [[CycloNum.zero()] * D for _ in range(D)]
    entries: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v, k, w in terms.tolist():
        entries.setdefault((u, v), []).append((k, w))
    for (u, v), ks in entries.items():
        out[u][v] = esum(L, ks)
    return out


def theta_matrix_closed_factored(field: QuadField, sigma: Mat2Z) -> tuple[CycloNum, list[list[CycloNum]]]:
    """Closed-form M(sigma) for c | D, c > 0, as (scalar, light matrix) with
    M = scalar * light, read from `theta_terms`."""
    if sigma.c <= 0 or field.D % sigma.c != 0:
        raise ValueError("closed form requires c | D with c > 0")
    scalar, terms = theta_terms(field, sigma)
    return scalar, _read(field, terms)


def theta_matrix_closed(field: QuadField, sigma: Mat2Z) -> list[list[CycloNum]]:
    """Closed-form M(sigma) for c | D, c > 0 (det sigma = 1)."""
    scalar, light = theta_matrix_closed_factored(field, sigma)
    return [[scalar * x if x.coeffs else x for x in row] for row in light]


def matrices_equal(A: list[list[CycloNum]], B: list[list[CycloNum]]) -> bool:
    return all((x - y).is_zero() for ra, rb in zip(A, B) for x, y in zip(ra, rb)
               if x.coeffs or y.coeffs)


def mat_mul(A: list[list[CycloNum]], B: list[list[CycloNum]]) -> list[list[CycloNum]]:
    n = len(A)
    return [[csum(A[i][k] * B[k][j] for k in range(n) if A[i][k].coeffs and B[k][j].coeffs)
             for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# numeric theta series, for analytic spot checks only


def lattice_coords(field: QuadField, u: DiffClass, al, be) -> tuple[np.ndarray, np.ndarray]:
    """Float coordinates (g1, g2) along (1, i sqrt(D)) of gamma = u + al + be*omega."""
    u1, u2 = u.coords()
    g1 = float(u1) + al + (be / 2 if field.e == 0 else 0)
    return g1, float(u2) + be / 2


def theta_eval(field: QuadField, u: DiffClass, tau: complex, z: complex, w: complex,
               radius: int = 12) -> complex:
    """Truncated theta_u(tau, z, w) = sum_{a in u+O_K} e[|a|^2 tau + conj(a) z + a w].

    The lattice sum runs over a = u + alpha + beta*omega with
    |alpha|, |beta| <= radius.
    """
    if tau.imag <= 0:
        raise ValueError("tau must be in the upper half-plane")
    r = np.arange(-radius, radius + 1)
    g1, g2 = lattice_coords(field, u, r[:, None], r[None, :])
    aa = g1 + 1j * math.sqrt(field.D) * g2
    nrm = g1 * g1 + field.D * g2 * g2
    return complex(np.exp(2j * np.pi * (nrm * tau + aa.conjugate() * z + aa * w)).sum())


def theta_slash(field: QuadField, u: DiffClass, sigma: Mat2Z, tau: complex, z: complex,
                w: complex, radius: int = 12) -> complex:
    """(theta_u |_{1,1} sigma)(tau, z, w) for sigma in SL2(Z), numerically."""
    a, b, c, d = sigma.entries()
    j = c * tau + d
    stau = (a * tau + b) / j
    return (
        1 / j
        * cmath.exp(-2j * cmath.pi * c * z * w / j)
        * theta_eval(field, u, stau, z / j, w / j, radius)
    )
