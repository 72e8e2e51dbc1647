"""Hecke layer for the degree-2 Hermitian Maass space.

Three pieces:
  * BetaTable -- the two-variable function beta(u, v) characterizing Maass
    forms: c_F(T) = beta(eps(T), D det(T)/eps(T)^2), subject to
      (ii)  beta(p^v q, d) - p^(k-1) beta(p^(v-1) q, d) = beta(q, d p^(2v))
            for every prime p not dividing N q,
      (iii) beta(u, v) = beta(1, v u^2) for u | N^infinity;
  * the right-coset representatives R_N of the inert-prime Hecke operator
    T_p = Gamma_{0,2}(N) diag(I, pI) Gamma_{0,2}(N) (count 1 + p + p^3 + p^4),
    integral unitary 4x4 matrices in U(2,2)(O_K), with an exact distinctness
    verifier.  Each coset has a canonical key, the reduced row echelon form
    over O_K/pO_K = F_{p^2} of the top two rows [A | B] of a representative
    mod p: if r2 = y r1 with y's B block = 0 mod p, then top(r2) = A_y
    top(r1) mod p with A_y invertible mod p (det y is a unit = det A_y
    det D_y).  Representatives are bucketed by key and any collision is
    decided by the exact membership test, so the check is linear when the
    keys are distinct;
  * beta_Tp -- the three-branch recursion transporting beta under T_p, which
    preserves conditions (ii)/(iii) (checked by verify_beta_conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import is_prime, prime_divisors, valuation
from .quadfield import AlgInt, QuadField


class TableRangeError(Exception):
    """A beta/alpha value outside the backing table's range was requested."""


_MISSING = object()


class BetaTable:
    """beta : Z+ x Z>=0 -> values, zero-extended to u <= 0 (the convention
    c_F(T') = 0 for T' outside the lattice); evaluations are memoized."""

    def __init__(self, k: int, N: int, fn: Callable[[int, int], object]):
        self.k = k
        self.N = N
        self._fn = fn
        self._memo: dict[tuple[int, int], object] = {}

    def value(self, u: int, v: int):
        out = self._memo.get((u, v), _MISSING)
        if out is _MISSING:
            if u <= 0:
                return 0
            if v < 0:
                raise ValueError("second argument must be non-negative")
            out = self._memo[(u, v)] = self._fn(u, v)
        return out


# ---------------------------------------------------------------------------
# integral unitary matrices and the T_p coset representatives


@dataclass(frozen=True, slots=True)
class UnitaryMat4:
    """A 4x4 matrix g in U(2,2)(O_K): entries a + b*omega with integers a, b,
    and g* J4 g = J4, both checked exactly by make."""

    field: QuadField
    rows: tuple[tuple[AlgInt, ...], ...]

    @staticmethod
    def make(field: QuadField, rows) -> "UnitaryMat4":
        rs = tuple(tuple(x if isinstance(x, AlgInt) else AlgInt(field, x, 0) for x in row)
                   for row in rows)
        if len(rs) != 4 or any(len(r) != 4 for r in rs):
            raise ValueError("need a 4x4 matrix")
        if not all(isinstance(x.a, int) and isinstance(x.b, int) for r in rs for x in r):
            raise ValueError("entries must be integral")
        _check_unitary(field, np.array([[[(x.a, x.b) for x in r] for r in rs]], dtype=object))
        return UnitaryMat4(field, rs)

    def __mul__(self, other: "UnitaryMat4") -> "UnitaryMat4":
        zero = AlgInt(self.field, 0, 0)
        rows = tuple(
            tuple(sum((self.rows[i][k] * other.rows[k][j] for k in range(4)), zero)
                  for j in range(4))
            for i in range(4)
        )
        return UnitaryMat4(self.field, rows)

    def inv(self) -> "UnitaryMat4":
        """g^{-1} = -J4 g* J4: with g* = [[A, B], [C, D]], [[D, -C], [-B, A]]."""
        s = [[self.rows[j][i].conj() for j in range(4)] for i in range(4)]
        rows = ([tuple(s[i + 2][2:] + [-x for x in s[i + 2][:2]]) for i in range(2)]
                + [tuple([-x for x in s[i][2:]] + s[i][:2]) for i in range(2)])
        return UnitaryMat4(self.field, tuple(rows))

    def c_block_divisible_by(self, M: int) -> bool:
        return all(x.a % M == 0 and x.b % M == 0
                   for i in range(2) for x in self.rows[i + 2][:2])

    def to_json(self) -> list:
        return [[[x.a, x.b] for x in row] for row in self.rows]


def _pair_dtype(field: QuadField, bound: int):
    """int64 when entries of magnitude <= bound keep every value of
    _in_u22 below 2^63 in magnitude, i.e. 8 (1 + t + n) bound^2 < 2^63 for
    omega of trace t and norm n; else object, exact at any size."""
    t, n = field.omega_trace, field.omega_norm
    return np.int64 if 8 * (1 + t + n) * bound * bound < 2**63 else object


# g* J4 g for g in U(2,2): -1 at (0, 2) and (1, 3), and +1 at (2, 0) and (3, 1)
_J4 = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])


def _in_u22(field: QuadField, g: np.ndarray) -> np.ndarray:
    """For each matrix of the [n, 4, 4, 2] integer pairs (x0, x1) of the
    entries x0 + x1*omega, whether g* J4 g = J4.  With conj(x) y =
    ((x0 + t x1) y0 + n x1 y1, x0 y1 - x1 y0) (t, n the trace and norm of
    omega) and J4 g = [-g_2; -g_3; g_0; g_1], (g* J4 g)_{ij} = sum_{k=0,1}
    conj(g_{k+2,i}) g_{kj} - conj(g_{ki}) g_{k+2,j}: four products of 2x4
    blocks per part."""
    t, n = field.omega_trace, field.omega_norm
    X, Y = g[..., 0], g[..., 1]
    top0, top1, bot0, bot1 = X[:, :2], Y[:, :2], X[:, 2:], Y[:, 2:]

    def tr(a):
        return a.transpose(0, 2, 1)

    re = (tr(bot0 + t * bot1) @ top0 + n * (tr(bot1) @ top1)
          - tr(top0 + t * top1) @ bot0 - n * (tr(top1) @ bot1))
    im = tr(bot0) @ top1 - tr(bot1) @ top0 - tr(top0) @ bot1 + tr(top1) @ bot0
    return ((re == _J4) & (im == 0)).all(axis=(1, 2))


def _check_unitary(field: QuadField, g: np.ndarray, N: int = 1) -> None:
    """Raise ValueError unless every matrix of the [n, 4, 4, 2] integer pairs
    g lies in U(2,2)(O_K) with lower-left block divisible by N.  An int64 g
    whose entries exceed _pair_dtype's bound is checked as object."""
    if g.dtype != object and _pair_dtype(field, int(np.abs(g).max(initial=0))) is object:
        g = g.astype(object)
    unitary = _in_u22(field, g)
    if not unitary.all():
        raise ValueError(f"matrix {int(np.argmin(unitary))} is not in U(2,2)(O_K)")
    c_block = (g[:, 2:, :2] % N == 0).all(axis=(1, 2, 3))
    if not c_block.all():
        raise ValueError(f"matrix {int(np.argmin(c_block))} has a lower-left block not divisible by {N}")


def _bezout_pair(p: int, N: int) -> tuple[int, int]:
    """Minimal non-negative xi with p*xi - N*lam = 1."""
    if N == 1:
        return 0, -1
    xi = pow(p, -1, N)
    lam = (p * xi - 1) // N
    return xi, lam


def _check_inert(field: QuadField, p: int, N: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.chi(p) != -1:
        raise ValueError(f"{p} is not inert in Q(sqrt(-{field.D}))")
    if N % p == 0:
        raise ValueError("p must not divide N")


def _families(field: QuadField, p: int, N: int):
    """The four parametrised families of coset_reps, one [n, 4, 4, 2] array
    of integer pairs each, built by broadcasting over the parameters (the
    first one outermost) and made one at a time."""
    t = field.omega_trace
    xi, lam = _bezout_pair(p, N)
    # every entry is at most (2N + 2 + |lam| + xi) p in magnitude
    dtype = _pair_dtype(field, (2 * N + 2 + abs(lam) + xi) * p)

    def grid(*ranges):
        return np.ix_(*(np.array(list(r), dtype=dtype) for r in ranges))

    def build(shape, rows):
        # an entry is an int or array (rational) or a pair (a, b) for a + b*omega
        g = np.zeros(shape + (4, 4, 2), dtype)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                g[..., i, j, 0], g[..., i, j, 1] = x if isinstance(x, tuple) else (x, 0)
        return g.reshape(-1, 4, 4, 2)

    # family 1: [[xi p I, lam I], [N I, I]]
    yield build((), [[xi * p, 0, lam, 0], [0, xi * p, 0, lam], [N, 0, 1, 0], [0, N, 0, 1]])
    # family 2: [[I, B], [N I, N B + I]] with B = [[gamma, b], [conj(b), delta]]
    b0, b1, gamma, delta = grid(range(p), range(p), range(1, p + 1), range(1, p + 1))
    bc0, bc1 = b0 + t * b1, -b1
    yield build((p,) * 4, [[1, 0, gamma, (b0, b1)], [0, 1, (bc0, bc1), delta],
                           [N, 0, 1 + N * gamma, (N * b0, N * b1)],
                           [0, N, (N * bc0, N * bc1), 1 + N * delta]])
    # family 3
    gamma, = grid(range(1, p + 1))
    yield build((p,), [[1, 0, gamma, 0], [0, xi * p, 0, lam], [0, 0, 1, 0], [0, N, 0, 1]])
    # family 4
    d0, d1, gamma = grid(range(p), range(p), range(1, p + 1))
    yield build((p,) * 3, [[xi * p, 0, lam, (lam * d0, lam * d1)], [(-(d0 + t * d1), d1), 1, 0, gamma],
                          [N, 0, 1, (d0, d1)], [0, 0, 0, 1]])


def _mats(field: QuadField, g: np.ndarray) -> list[UnitaryMat4]:
    """The checked matrices of the [n, 4, 4, 2] integer pairs g, each
    distinct entry one AlgInt shared by every matrix that holds it."""
    lo = int(g[..., 1].min())
    span = int(g[..., 1].max()) - lo + 1
    # one integer key a * span + (b - lo) per entry a + b*omega
    keys, at = np.unique(g[..., 0] * span + (g[..., 1] - lo), return_inverse=True)
    get = [AlgInt(field, a, b + lo) for a, b in (divmod(k, span) for k in keys.tolist())].__getitem__
    at = at.reshape(-1, 16)
    out = []
    for s in range(0, len(at), 4096):  # a block at a time keeps tolist's lists small
        for m in at[s:s + 4096].tolist():
            x = tuple(map(get, m))
            out.append(UnitaryMat4(field, (x[:4], x[4:8], x[8:12], x[12:])))
    return out


def coset_reps(field: QuadField, p: int, N: int) -> list[UnitaryMat4]:
    """The 1 + p^4 + p + p^3 right-coset representatives R_N for
    alpha^{-1} Gamma_{0,2}(Np) alpha \\ Gamma_{0,2}(N), alpha = diag(I, pI),
    p inert and prime to N.  Each family is checked as one array: every
    representative lies in U(2,2)(O_K) with lower-left block divisible by N."""
    _check_inert(field, p, N)
    reps = []
    for g in _families(field, p, N):
        _check_unitary(field, g, N)
        reps += _mats(field, g)
    if len(reps) != 1 + p + p**3 + p**4:
        raise AssertionError(f"{len(reps)} coset representatives, not 1 + p + p^3 + p^4")
    return reps


def _same_coset(field: QuadField, p: int, N: int, r1: UnitaryMat4, r2: UnitaryMat4) -> bool:
    """True iff alpha r2 r1^{-1} alpha^{-1} lies in Gamma_{0,2}(Np), i.e. r1
    and r2 represent the same right coset."""
    y = r2 * r1.inv()
    # y is integral and unitary, and alpha [[A,B],[C,D]] alpha^{-1} =
    # [[A, B/p], [pC, D]]: membership needs B = 0 mod p and C = 0 mod N
    b_div = all(x.a % p == 0 and x.b % p == 0 for i in range(2) for x in y.rows[i][2:])
    return b_div and y.c_block_divisible_by(N)


def coset_key(field: QuadField, p: int, r: UnitaryMat4) -> tuple:
    """The canonical key of the right coset of r: the reduced row
    echelon form over O_K/pO_K = F_{p^2} of the top two rows [A | B] of r
    mod p, each entry a pair (a, b) standing for a + b*omega.  For a
    representative of T_p it is a totally isotropic 2-space of the hermitian
    form J4 (A B* - B A* = 0 mod p), a generator of the polar space H(3, p^2).
    """
    t, n = field.omega_trace, field.omega_norm

    def mul(x, y):  # omega^2 = t*omega - n
        return ((x[0] * y[0] - n * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1]) % p)

    def inv(x):  # conj(x) / N(x), and N(x) != 0 mod p because p is inert
        a, b = x
        s = pow(a * a + t * a * b + n * b * b, -1, p)
        return (a + t * b) * s % p, -b * s % p

    rows = [[(x.a % p, x.b % p) for x in row] for row in r.rows[:2]]
    lead = 0
    for c in range(4):
        piv = next((i for i in range(lead, 2) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        s = inv(rows[lead][c])
        rows[lead] = [mul(s, x) for x in rows[lead]]
        other = 1 - lead
        f = rows[other][c]
        if f != (0, 0):
            rows[other] = [((x[0] - fy[0]) % p, (x[1] - fy[1]) % p)
                           for x, fy in zip(rows[other], (mul(f, y) for y in rows[lead]))]
        lead += 1
        if lead == 2:
            break
    return tuple(map(tuple, rows))


def verify_reps_distinct(field: QuadField, p: int, N: int,
                         reps: list[UnitaryMat4] | None = None) -> bool:
    """Exact check that reps (default coset_reps(field, p, N)) lie in
    pairwise distinct right cosets.

    Representatives are bucketed by coset_key.  The key of a coset is well
    defined: if r2 = y r1 with y's B block = 0 mod p, then top(r2) = A_y
    top(r1) mod p, and det y is a unit = det A_y det D_y mod p, so A_y is
    invertible mod p.  Each collision is then decided by the exact
    membership test _same_coset, so the verdict equals that of comparing all
    pairs, at linear cost when the keys are distinct.
    """
    _check_inert(field, p, N)
    if reps is None:
        reps = coset_reps(field, p, N)
    buckets: dict[tuple, list[UnitaryMat4]] = {}
    for r in reps:
        buckets.setdefault(coset_key(field, p, r), []).append(r)
    return not any(_same_coset(field, p, N, r1, r2)
                   for rs in buckets.values()
                   for i, r1 in enumerate(rs) for r2 in rs[i + 1:])


# ---------------------------------------------------------------------------
# the beta recursion under T_p


def beta_Tp(beta: BetaTable, p: int, field: QuadField) -> BetaTable:
    """The function beta_G of G = F|T_p from beta_F, for p inert and prime
    to the level:

      beta_G(p^v q, r) = beta_F(p^{v-1} q, r) + p^{4-2k} beta_F(p^{v+1} q, r)
        + | p^{1-k} beta_F(p^{v+1} q, r/p^2) + p^{3-k} beta_F(p^{v-1} q, p^2 r)   if p^2 | r
          | p^{1-k} beta_F(p^v q, r)        + p^{3-k} beta_F(p^{v-1} q, p^2 r)   if p || r
          | p^{1-k} (p+1) beta_F(p^v q, r)  + p^{1-k} (p^2-p) beta_F(p^{v-1} q, p^2 r)  if p !| r

    (p !| q; terms with p^{v-1} at v = 0 drop by zero extension)."""
    _check_inert(field, p, beta.N)
    k = beta.k
    if k < 3:
        raise ValueError("beta_Tp needs k >= 3")
    # every coefficient as an integer multiple of 1/P, P = p^(2k-4)
    P, pp = p ** (2 * k - 4), p * p
    r_c, down_c = p ** (k - 3), p ** (k - 1)
    unit_c, down_unit_c = (p + 1) * r_c, (pp - p) * r_c
    value = beta.value

    def fn(u: int, r: int):
        # u = p^v q: p^{v-1} q = u/p, or 0 (zero extension) at v = 0; p^{v+1} q = u p
        pv_down, pv_up = (0 if u % p else u // p), u * p
        out = P * value(pv_down, r) + value(pv_up, r)
        if r % pp == 0:
            out += r_c * value(pv_up, r // pp) + down_c * value(pv_down, r * pp)
        elif r % p == 0:
            out += r_c * value(u, r) + down_c * value(pv_down, r * pp)
        else:
            out += unit_c * value(u, r) + down_unit_c * value(pv_down, r * pp)
        return Fraction(out, P) if type(out) is int else out / P

    return BetaTable(k, beta.N, fn)


def verify_beta_conditions(beta: BetaTable, window: tuple[int, int], N: int) -> dict:
    """Check conditions (ii) and (iii) on the finite window u <= window[0],
    d <= window[1]; identities whose arguments exceed the backing table's
    range are skipped (counted).  Returns a report with located witnesses."""
    u_max, d_max = window
    checked = skipped = 0
    failures = []
    pk = {p: p ** (beta.k - 1) for p in (2, 3, 5, 7) if N % p}
    value = beta.value
    for u in range(1, u_max + 1):
        iii = u > 1 and all(N % p == 0 for p in prime_divisors(u))
        # (ii) for each prime p with p !| N q: (p, u/p or 0, q, p^(2v))
        ii = [(p, u // p if v else 0, u // p**v, p ** (2 * v))
              for p in pk for v in [valuation(u, p)]]
        if not (iii or ii):
            continue
        for d in range(0, d_max + 1):
            try:
                b = value(u, d)
            except TableRangeError:
                skipped += iii + len(ii)
                continue
            if iii:
                try:
                    if b != value(1, d * u * u):
                        failures.append({"cond": "iii", "u": u, "d": d})
                    checked += 1
                except TableRangeError:
                    skipped += 1
            for p, down, q, p2v in ii:
                try:
                    if b - pk[p] * value(down, d) != value(q, d * p2v):
                        failures.append({"cond": "ii", "u": u, "d": d, "p": p})
                    checked += 1
                except TableRangeError:
                    skipped += 1
    return {"checked": checked, "skipped": skipped, "failures": failures,
            "ok": not failures}

