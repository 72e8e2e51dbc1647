"""Theta transformation matrices M_{u,v}(sigma) and numeric theta series.

The defining exponential sum (valid for every sigma in SL2(Z)) is

    M_{u,v} = (-i/(c*sqrt(D))) * sum_{gamma in u + O_K/cO_K}
                  e[(a|gamma|^2 - gamma*conj(v) - conj(gamma)*v + d|v|^2)/c]

for c != 0, and sign(a)*delta_{u,av}*e[ab|u|^2] for c = 0.  For c | D, c > 0
there are cheaper closed forms (one for odd D, a two-factor one for even D).

Every matrix is M = scalar * light, `light` an int64 term table: rows
(u, v, k, w), the entry (u, v) being the sum of w e[k/order] over its rows.
`_read` gives the CycloNum matrix of a table of any order in one pass: the
rows sorted by (entry, exponent) and merged in numpy, and each entry's
CycloNum built from its slice.  `ResidueRing.matrix` reads an order-L table
to residues.  `theta_terms` covers c = 0 and c | D, c > 0 at order L = D (odd
D) or 2D (`monomial_terms` the c in {0, D} tables of many sigma at once);
`theta_matrix_closed` folds its scalar into the table, one row per light row
and scalar term, so no entry is multiplied by the scalar.
`theta_sum_terms` is the defining sum at c != 0, order 2D|c|, assuming no
closed form, so it is their oracle.  It is factored over the prime powers q
of |c| (Berndt, Evans and Williams, *Gauss and Jacobi Sums*, 1998, ch. 1),
sum q^2 terms per entry instead of c^2, with the prefactor -i/sqrt(D) =
-G(chi_K)/D (charsums.i_sqrtD) folded into the integer weights.  A factor's
sums depend on (D, A, a mod q, q) only and are kept, up to _SUMS bytes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .arith import factorize, valuation
from .charsums import gauss_sum, i_sqrtD
from .cyclotomic import CycloNum, _raw, csum
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

# O_K/q residues per block of one factor's sums: int64 temporaries of 0.5 MB
_BLOCK = 2**16
# the largest O_K/q grid of one factor (8 MB temporaries); a larger q is refused
_GRID = 2**20
# bytes of factor sums kept by _factor_sums (the oldest go first)
_SUMS = 2**23
_sums: dict[tuple[int, int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def theta_order(field: QuadField) -> int:
    """L = D (odd D) or 2D: the values of the criterion at one sigma lie in Q(zeta_L)."""
    return field.D if field.e == 0 else 2 * field.D


def _keys(field: QuadField) -> tuple[np.ndarray, np.ndarray, int]:
    """The class keys (x1, x2) as columns ((0, x) at odd D); class index x1 * half + x2."""
    half = field.D // 2 if field.e else field.D
    X1, X2 = np.divmod(np.arange(field.D, dtype=np.int64), half)
    return X1, X2, half


def _gauss_fold(field: QuadField) -> np.ndarray:
    """W[q, q'] = chi(q' - q): counts over exponents q/D, times W, are G(chi_K) times them."""
    k = np.arange(field.D)
    return np.array(chi_component(field, field.D).table)[(k - k[:, None]) % field.D]


def _factor_sums(field: QuadField, A: int, a: int, q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{x in O_K/q} e[(A N(x) + al s1 + be s2)/q], x = al + be omega, q = p^e,
    for the D^2 pairs (s1, s2) = (a x1 - y1, a x2 - y2) of class keys (entry
    u D + v), as counts [row, k] of e[k/q], one row per distinct (s1, s2) mod
    q, and the row of each pair.  Each coset k + (q/p)Z sums to 0, so its lower
    median count is dropped: a canonical form, one term for +-p^e e[k/q].
    Kept by (D, A, a mod q, q), read-only, up to _SUMS bytes in all."""
    key = (field.D, A, a % q, q)
    if key in _sums:
        return _sums[key]
    X1, X2, _ = _keys(field)
    s1, s2 = ((a % q * x[:, None] - x[None, :]).ravel() for x in (X1, X2))
    keys, row = np.unique(s1 % q * q + s2 % q, return_inverse=True)
    al, be = np.arange(q)[:, None], np.arange(q)
    AN = A * ((al * al + field.omega_trace * al * be + field.omega_norm % q * be * be) % q) % q
    counts = np.zeros((len(keys), q), dtype=np.int64)
    per = max(1, _BLOCK // (q * q))
    for i in range(0, len(keys), per):
        t1, t2 = (x[:, None, None] for x in np.divmod(keys[i:i + per], q))
        k = (AN + al * t1 + be * t2) % q + q * np.arange(len(t1))[:, None, None]
        counts[i:i + per] = np.bincount(k.ravel(), minlength=len(t1) * q).reshape(-1, q)
    cosets = counts.reshape(len(keys), p, q // p)
    mid = np.partition(cosets, (p - 1) // 2, axis=1)[:, (p - 1) // 2, None]
    out = _sums[key] = row, (cosets - mid).reshape(len(keys), q)
    for x in out:
        x.flags.writeable = False
    size = sum(r.nbytes + c.nbytes for r, c in _sums.values())
    while size > _SUMS:
        r, c = _sums.pop(next(iter(_sums)))
        size -= r.nbytes + c.nbytes
    return out


def theta_sum_terms(field: QuadField, sigma: Mat2Z) -> tuple[Fraction, np.ndarray]:
    """The defining sum of M(sigma), c != 0, as the scalar 1/(D|c|) times a
    term table of order 2D|c|.  With |c| = prod q over coprime prime powers,
    c_q = c/q, y = a u - v and gamma = u + sum_q c_q x_q (x_q in O_K/q), the
    cross terms of N(gamma) are multiples of c, so the sum over gamma is
      e[(a|u|^2 - Tr(u conj(v)) + d|v|^2)/c] prod_q sum_x e[(a c_q N(x) + Tr(conj(x) y))/q],
    |u|^2 at the unreduced class representative, Tr(conj(x) y) =
    al Tr(y) + be Tr(conj(omega) y) for x = al + be omega.  OverflowError,
    before any grid is built, for a factor grid over _GRID or int64 weights."""
    if sigma.det() != 1:
        raise ValueError("sigma must have determinant 1")
    a, b, c, d = sigma.entries()
    if c == 0:
        raise ValueError("the defining sum needs c != 0")
    D, cabs = field.D, abs(c)
    # int64 holds the weights (below D c^2) and the constant's 2 n0 (below 8 D^3 |c|)
    if (D * cabs * (cabs + 8 * D * D) >= 2**62
            or max(p**e for p, e in [(1, 1)] + factorize(cabs)) ** 2 > _GRID):
        raise OverflowError(f"theta_sum_terms: the lattice sum for c = {c} is too large")
    factors = factorize(cabs)
    R, O = 2 * cabs, 2 * D * cabs
    a, d = a % (D * cabs), d % (D * cabs)
    X1, X2, _ = _keys(field)
    # D|u|^2 = D x1^2/4 + x2^2 and D Tr(u conj(v)) = D x1 y1/2 + 2 x2 y2 (x1 = 0 at odd D)
    DN = D // 4 * X1 * X1 + X2 * X2
    x1, x2, y1, y2 = X1[:, None], X2[:, None], X1[None, :], X2[None, :]
    n0 = (a * DN[:, None] - (D // 2 * x1 * y1 + 2 * x2 * y2) + d * DN[None, :]).ravel()
    # rows (entry u D + v, exponent over O, weight); the constant is e[n0/(D c)]
    ent, K, W = np.arange(D * D), 2 * (n0 if c > 0 else -n0) % O, np.ones(D * D, dtype=np.int64)
    for p, e in factors:
        q = p**e
        row, counts = _factor_sums(field, a * (c // q) % q, a, q, p)
        # each row of an entry times each nonzero count of its factor
        j, k = np.nonzero(counts[row[ent]])
        ent, K, W = ent[j], (K[j] + k * (O // q)) % O, W[j] * counts[row[ent[j]], k]
    # exponent K = Q R + r: G(chi_K)'s term k moves Q by k, so counts over Q fold with W
    Q, r = np.divmod(K, R)
    keys, at = np.unique(ent * R + r, return_inverse=True)
    hist = np.zeros((len(keys), D), dtype=np.int64)
    np.add.at(hist, (at, Q), W)
    hist = hist @ (_gauss_fold(field) * (-1 if c > 0 else 1))
    i, Q = np.nonzero(hist)
    u, v = np.divmod(keys[i] // R, D)
    return Fraction(1, D * cabs), np.stack([u, v, Q * R + keys[i] % R, hist[i, Q]], axis=1)


def theta_matrix(field: QuadField, sigma: Mat2Z) -> list[list[CycloNum]]:
    """The D x D matrix (M_{u,v}(sigma)) from the defining sum, rows/columns
    in canonical class order: `_read` of `theta_sum_terms`, or of `theta_terms` at c = 0."""
    if sigma.c == 0:
        return _read(theta_order(field), theta_terms(field, sigma)[1], field.D)
    scalar, terms = theta_sum_terms(field, sigma)
    return _read(2 * field.D * abs(sigma.c), terms, field.D, scalar.denominator)


def _exact(L: int, num: np.ndarray, Q: int) -> np.ndarray:
    """Exponents num/Q as integers over L | Q; ValueError unless each is exact."""
    if (num % (Q // L)).any():
        raise ValueError("theta entry outside Q(zeta_L)")
    return num // (Q // L) % L


def monomial_terms(field: QuadField, sigmas: list[Mat2Z]) -> np.ndarray:
    """The term tables [sigma, v, (u, v, k, w)] of M(sigma) for each sigma of
    det 1 with c in {0, D}: M_{u,v} = w delta_{u, t v} e[ab|u|^2], with
    (t, w) = (a, sign a) at c = 0 and (d, chi(d)) at c = D; order L."""
    D, L = field.D, theta_order(field)
    rows = []
    for s in sigmas:
        a, b, c, d = s.entries()
        if s.det() != 1 or c not in (0, D):
            raise ValueError("monomial tables need det 1 and c in {0, D}")
        t, w = (a, 1 if a > 0 else -1) if c == 0 else (d, field.chi(d))
        rows.append((t % D, w, a * b % D))
    t, w, ab = np.array(rows, dtype=np.int64).reshape(-1, 3).T[..., None]
    X1, X2, half = _keys(field)
    u = t % 2 * X1 * half + t % half * X2 % half
    dn = np.array([x.dnorm for x in classes(field)], dtype=np.int64)
    v = np.broadcast_to(np.arange(D), u.shape)
    return np.stack([u, v, ab * dn[u] % D * (L // D), np.broadcast_to(w, u.shape)], axis=2)


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
    if c in (0, D):
        return CycloNum.from_rational(1), monomial_terms(field, [sigma])[0]
    X1, X2, _ = _keys(field)
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


def _read(order: int, terms: np.ndarray, D: int, den: int = 1) -> list[list[CycloNum]]:
    """The CycloNum matrix of a term table of `order`, over `den`, in one pass:
    the rows sorted by (entry, exponent mod order) and merged, then each
    entry's exponents divided by their gcd with order (zero sums included)
    and its weights by their gcd with den, which is what `esum` gives for the
    entry's rows.  Entries without rows are 0."""
    if D * D * order >= 2**63:
        raise OverflowError(f"_read: the sort key of order {order} exceeds int64")
    u, v, k, w = terms.T
    key = (u * D + v) * order + k % order
    at = np.argsort(key)
    key = key[at]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    ent, k = np.divmod(key[first], order)
    w = np.add.reduceat(w[at], first)
    start = np.flatnonzero(np.diff(ent, prepend=ent[:1] - 1))
    n = np.diff(start, append=len(ent))
    g = np.gcd(np.gcd.reduceat(k, start), order)
    dg = np.gcd(np.gcd.reduceat(w, start), den)
    keep = w != 0
    pairs = zip((k // np.repeat(g, n))[keep].tolist(), (w // np.repeat(dg, n))[keep].tolist())
    kept = np.add.reduceat(keep.astype(np.int64), start).tolist()
    flat = [CycloNum.zero()] * (D * D)
    for e, o, m, d in zip(ent[start].tolist(), (order // g).tolist(), kept, (den // dg).tolist()):
        flat[e] = _raw(o, dict(islice(pairs, m)), d)
    return [flat[i:i + D] for i in range(0, D * D, D)]


def theta_matrix_closed_factored(field: QuadField, sigma: Mat2Z) -> tuple[CycloNum, list[list[CycloNum]]]:
    """Closed-form M(sigma) for c | D, c > 0, as (scalar, light matrix) with
    M = scalar * light, read from `theta_terms`."""
    if sigma.c <= 0 or field.D % sigma.c != 0:
        raise ValueError("closed form requires c | D with c > 0")
    scalar, terms = theta_terms(field, sigma)
    return scalar, _read(theta_order(field), terms, field.D)


def theta_matrix_closed(field: QuadField, sigma: Mat2Z) -> list[list[CycloNum]]:
    """Closed-form M(sigma) for c | D, c > 0 (det sigma = 1): one table of
    order lcm(L, scalar order), a row per light row and scalar term, read
    once over the scalar's den.  OverflowError if the weights could leave int64."""
    if sigma.c <= 0 or field.D % sigma.c != 0:
        raise ValueError("closed form requires c | D with c > 0")
    scalar, light = theta_terms(field, sigma)
    L = theta_order(field)
    M = math.lcm(L, scalar.order)
    cs = list(scalar.coeffs.values())
    if (max(map(abs, cs), default=0) * int(np.abs(light[:, 3]).max(initial=0))
            * len(cs) * len(light) >= 2**63):
        raise OverflowError("theta_matrix_closed: the folded weights exceed int64")
    ks = np.array(list(scalar.coeffs), dtype=np.int64) * (M // scalar.order)
    u, v, k, w = (x[:, None] for x in light.T)
    terms = np.stack(np.broadcast_arrays(u, v, k * (M // L) + ks, w * np.array(cs, dtype=np.int64)),
                     axis=2)
    return _read(M, terms.reshape(-1, 4), field.D, scalar.den)


def matrices_equal(A: list[list[CycloNum]], B: list[list[CycloNum]]) -> bool:
    """Entrywise equality; a pair with equal order, den and coeffs skips the subtraction."""
    return all((x.order, x.den, x.coeffs) == (y.order, y.den, y.coeffs) or (x - y).is_zero()
               for ra, rb in zip(A, B) for x, y in zip(ra, rb) if x.coeffs or y.coeffs)


def mat_mul(A: list[list[CycloNum]], B: list[list[CycloNum]]) -> list[list[CycloNum]]:
    """A B over the nonzero pattern: a lone product is returned as is, an empty sum is 0."""
    n = len(A)
    rows = [[k for k in range(n) if A[i][k].coeffs] for i in range(n)]
    cols = [{k for k in range(n) if B[k][j].coeffs} for j in range(n)]
    zero = CycloNum.zero()

    def dot(i: int, j: int) -> CycloNum:
        ks = [k for k in rows[i] if k in cols[j]]
        if len(ks) == 1:
            return A[i][ks[0]] * B[ks[0]][j]
        return csum(A[i][k] * B[k][j] for k in ks) if ks else zero

    return [[dot(i, j) for j in range(n)] for i in range(n)]


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
