"""Hecke layer for the degree-2 Hermitian Maass space.

Three pieces:
  * BetaTable -- the two-variable function beta(u, v) characterizing Maass
    forms: c_F(T) = beta(eps(T), D det(T)/eps(T)^2), subject to
      (ii)  beta(p^v q, d) - p^(k-1) beta(p^(v-1) q, d) = beta(q, d p^(2v))
            for every prime p not dividing N q,
      (iii) beta(u, v) = beta(1, v u^2) for u | N^infinity;
  * the right-coset representatives R_N of the inert-prime Hecke operator
    T_p = Gamma_{0,2}(N) diag(I, pI) Gamma_{0,2}(N) (count 1 + p + p^3 + p^4),
    with an exact pairwise-distinctness verifier;
  * beta_Tp -- the three-branch recursion transporting beta under T_p, which
    preserves conditions (ii)/(iii) (checked by verify_beta_conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .arith import is_prime, prime_divisors, valuation
from .quadfield import AlgInt, QuadField


class TableRangeError(Exception):
    """A beta/alpha value outside the backing table's range was requested."""


class BetaTable:
    """beta : Z+ x Z>=0 -> values, zero-extended to u <= 0 (the convention
    c_F(T') = 0 for T' outside the lattice); evaluations are memoized."""

    def __init__(self, k: int, N: int, fn: Callable[[int, int], object]):
        self.k = k
        self.N = N
        self._fn = fn
        self._memo: dict[tuple[int, int], object] = {}

    def value(self, u: int, v: int):
        if u <= 0:
            return 0
        if v < 0:
            raise ValueError("second argument must be non-negative")
        key = (u, v)
        if key not in self._memo:
            self._memo[key] = self._fn(u, v)
        return self._memo[key]


# ---------------------------------------------------------------------------
# unitary similitude matrices and the T_p coset representatives


@dataclass(frozen=True)
class UnitaryMat4:
    """A 4x4 matrix over K (entries a + b*omega, rational a, b) together with
    its similitude mu, where g* J4 g = mu * J4 is checked exactly on build."""

    field: QuadField
    rows: tuple[tuple[AlgInt, ...], ...]
    mu: Fraction

    @staticmethod
    def make(field: QuadField, rows) -> "UnitaryMat4":
        rs = tuple(tuple(_as_alg(field, x) for x in row) for row in rows)
        if len(rs) != 4 or any(len(r) != 4 for r in rs):
            raise ValueError("need a 4x4 matrix")
        mu = _similitude(field, rs)
        return UnitaryMat4(field, rs, mu)

    def __mul__(self, other: "UnitaryMat4") -> "UnitaryMat4":
        rows = tuple(
            tuple(
                _sum_alg(self.field, [self.rows[i][k] * other.rows[k][j] for k in range(4)])
                for j in range(4)
            )
            for i in range(4)
        )
        return UnitaryMat4(self.field, rows, self.mu * other.mu)

    def conj_transpose(self) -> "UnitaryMat4":
        rows = tuple(tuple(self.rows[j][i].conj() for j in range(4)) for i in range(4))
        return UnitaryMat4(self.field, rows, self.mu)

    def inv(self) -> "UnitaryMat4":
        """g^{-1} = (1/mu) * (-J4 g* J4)."""
        s = self.conj_transpose()
        # -J4 M J4 swaps blocks: [[A,B],[C,D]] -> [[D, -B], [-C, A]]
        A = [[s.rows[i][j] for j in range(2)] for i in range(2)]
        B = [[s.rows[i][j + 2] for j in range(2)] for i in range(2)]
        C = [[s.rows[i + 2][j] for j in range(2)] for i in range(2)]
        D = [[s.rows[i + 2][j + 2] for j in range(2)] for i in range(2)]
        # -J4 [[A,B],[C,D]] J4 = [[D, -C], [-B, A]]
        q = 1 / self.mu
        rows = []
        for i in range(2):
            rows.append(tuple(_scale(x, q) for x in (D[i][0], D[i][1], -C[i][0], -C[i][1])))
        for i in range(2):
            rows.append(tuple(_scale(x, q) for x in (-B[i][0], -B[i][1], A[i][0], A[i][1])))
        return UnitaryMat4(self.field, tuple(rows), Fraction(1) / self.mu)

    def is_integral(self) -> bool:
        return all(
            Fraction(x.a).denominator == 1 and Fraction(x.b).denominator == 1
            for r in self.rows
            for x in r
        )

    def c_block_divisible_by(self, M: int) -> bool:
        return all(
            Fraction(x.a, M).denominator == 1 and Fraction(x.b, M).denominator == 1
            for i in range(2)
            for x in self.rows[i + 2][:2]
        )

    def to_json(self) -> list:
        return [[[int(x.a), int(x.b)] for x in row] for row in self.rows]


def _as_alg(field: QuadField, x) -> AlgInt:
    if isinstance(x, AlgInt):
        return x
    return AlgInt(field, x, 0)


def _scale(x: AlgInt, q: Fraction) -> AlgInt:
    return AlgInt(x.field, x.a * q, x.b * q)


def _sum_alg(field: QuadField, xs) -> AlgInt:
    out = AlgInt(field, 0, 0)
    for x in xs:
        out = out + x
    return out


def _similitude(field: QuadField, rows) -> Fraction:
    """mu with g* J4 g = mu J4, raising if g is not a similitude matrix."""
    # (g* J4 g)_{ij} = sum_k conj(g_{ki}) (J4 g)_{kj};  J4 g swaps row blocks
    jg = [tuple(-x for x in rows[2]), tuple(-x for x in rows[3]), rows[0], rows[1]]
    prod = [
        [
            _sum_alg(field, [rows[k][i].conj() * jg[k][j] for k in range(4)])
            for j in range(4)
        ]
        for i in range(4)
    ]
    # J4 pattern: entries (0,2),(1,3) = -1 and (2,0),(3,1) = +1, rest 0
    mu = None
    for i in range(4):
        for j in range(4):
            x = prod[i][j]
            if (i, j) in ((0, 2), (1, 3)):
                cand = Fraction(-x.a)
            elif (i, j) in ((2, 0), (3, 1)):
                cand = Fraction(x.a)
            else:
                if x.a != 0 or x.b != 0:
                    raise ValueError("matrix is not a unitary similitude")
                continue
            if x.b != 0:
                raise ValueError("matrix is not a unitary similitude")
            if mu is None:
                mu = cand
            elif mu != cand:
                raise ValueError("matrix is not a unitary similitude")
    assert mu is not None
    return mu


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


def coset_reps(field: QuadField, p: int, N: int) -> list[UnitaryMat4]:
    """The 1 + p^4 + p + p^3 right-coset representatives R_N for
    alpha^{-1} Gamma_{0,2}(Np) alpha \\ Gamma_{0,2}(N), alpha = diag(I, pI),
    p inert and prime to N.  Every representative is verified to lie in
    U(2,2)(Z) with lower-left block divisible by N."""
    _check_inert(field, p, N)
    xi, lam = _bezout_pair(p, N)
    reps = []

    def add(rows):
        g = UnitaryMat4.make(field, rows)
        if g.mu != 1 or not g.is_integral() or not g.c_block_divisible_by(N):
            raise AssertionError("representative fails Gamma_{0,2}(N) membership")
        reps.append(g)

    one = AlgInt(field, 1, 0)
    zero = AlgInt(field, 0, 0)

    # family 1: [[xi p I, lam I], [N I, I]]
    add([
        [xi * p, 0, lam, 0],
        [0, xi * p, 0, lam],
        [N, 0, 1, 0],
        [0, N, 0, 1],
    ])
    # family 2: [[I, B], [N I, N B + I]] with B = [[gamma, b], [conj(b), delta]]
    for b0 in range(p):
        for b1 in range(p):
            b = AlgInt(field, b0, b1)
            bc = b.conj()
            for gamma in range(1, p + 1):
                for delta in range(1, p + 1):
                    add([
                        [one, zero, gamma * one, b],
                        [zero, one, bc, delta * one],
                        [N * one, zero, (1 + N * gamma) * one, N * b],
                        [zero, N * one, N * bc, (1 + N * delta) * one],
                    ])
    # family 3
    for gamma in range(1, p + 1):
        add([
            [1, 0, gamma, 0],
            [0, xi * p, 0, lam],
            [0, 0, 1, 0],
            [0, N, 0, 1],
        ])
    # family 4
    for d0 in range(p):
        for d1 in range(p):
            d = AlgInt(field, d0, d1)
            dc = d.conj()
            for gamma in range(1, p + 1):
                add([
                    [xi * p * one, zero, lam * one, lam * d],
                    [-dc, one, zero, gamma * one],
                    [N * one, zero, one, d],
                    [zero, zero, zero, one],
                ])
    assert len(reps) == 1 + p + p**3 + p**4
    return reps


def _same_coset(field: QuadField, p: int, N: int, r1: UnitaryMat4, r2: UnitaryMat4) -> bool:
    """True iff alpha r2 r1^{-1} alpha^{-1} lies in Gamma_{0,2}(Np), i.e. r1
    and r2 represent the same right coset."""
    y = r2 * r1.inv()
    if y.mu != 1:
        return False
    # alpha [[A,B],[C,D]] alpha^{-1} = [[A, B/p], [pC, D]]: membership needs
    # B = 0 mod p (integrality) and pC = 0 mod Np, i.e. C = 0 mod N
    if not y.is_integral():
        return False
    b_div = all(
        Fraction(x.a, p).denominator == 1 and Fraction(x.b, p).denominator == 1
        for i in range(2)
        for x in y.rows[i][2:]
    )
    return b_div and y.c_block_divisible_by(N)


def verify_reps_distinct(field: QuadField, p: int, N: int,
                         pairwise: bool = False) -> bool:
    """Exact pairwise check that the coset representatives are distinct.

    By default the check is vectorized: all reps are integral with mu = 1, so
    r2 r1^{-1} is an integral matrix and coset equality reduces to integer
    congruences (B block mod p, C block mod N) on batched products of the
    coefficient tensors in the (1, omega) basis -- still exact: the entries
    are bounded against 2^63 first, and OverflowError is raised instead of a
    wrapped product.  Both routes are quadratic in the number of reps (the
    fast one takes about 1 s at p = 5 and 5 s at p = 7).  pairwise=True
    forces the direct object-level loop (used to cross-check the fast path).
    """
    reps = coset_reps(field, p, N)
    if pairwise:
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if _same_coset(field, p, N, reps[i], reps[j]):
                    return False
        return True
    import numpy as np

    n = len(reps)
    t, nn = field.omega_trace, field.omega_norm
    Rx, Ry = _coeff_tensors(reps)
    Ix, Iy = _coeff_tensors([r.inv() for r in reps])
    # each entry of cx, cy below combines sums of 4 products; bounded in
    # Python integers, it must fit numpy's int64
    prod = 4 * _max_abs(Rx, Ry) * _max_abs(Ix, Iy)
    if prod * (2 + abs(nn) + abs(t)) >= 2**63:
        raise OverflowError(f"verify_reps_distinct: coset products for p = {p}, N = {N} exceed int64")
    matches = 0
    step = max(1, 2_000_000 // (n * 16))
    # only the B block (mod p) and the C block (mod N) of y enter the test
    blocks = ((slice(0, 2), slice(2, 4), p), (slice(2, 4), slice(0, 2), N))
    for lo in range(0, n, step):
        same = True
        for rows, cols, mod in blocks:
            # that block of y = reps[j] * inv(reps[i]) for all pairs (i, j) of
            # the chunk: (X1 + w Y1)(X2 + w Y2), w^2 = -norm + trace*w
            Ax, Ay = Rx[None, :, rows], Ry[None, :, rows]
            Bx, By = Ix[lo:lo + step, None, :, cols], Iy[lo:lo + step, None, :, cols]
            xx, xy, yx, yy = Ax @ Bx, Ax @ By, Ay @ Bx, Ay @ By
            cx = xx - nn * yy
            cy = xy + yx + t * yy
            same = same & ((cx % mod == 0) & (cy % mod == 0)).all(axis=(2, 3))
        matches += int(same.sum())
    # each rep matches exactly itself iff all cosets are distinct
    return matches == n


def _max_abs(*arrays) -> int:
    """The largest absolute entry of integer arrays, as a Python int."""
    return max(max(int(x.max()), -int(x.min())) for x in arrays)


def _coeff_tensors(mats: list) -> tuple:
    """The integer coefficient tensors (shape (n, 4, 4)) of a list of integral
    UnitaryMat4 in the basis (1, omega)."""
    import numpy as np

    xs = [[[int(x.a) for x in row] for row in m.rows] for m in mats]
    ys = [[[int(x.b) for x in row] for row in m.rows] for m in mats]
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


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

    def fn(u: int, r: int):
        v = valuation(u, p) if u else 0
        q = u // p**v
        pv_down = q * p ** (v - 1) if v >= 1 else 0  # 0 -> zero extension
        pv_up = q * p ** (v + 1)
        out = beta.value(pv_down, r) + Fraction(1, p ** (2 * k - 4)) * beta.value(pv_up, r)
        if r % (p * p) == 0:
            out = out + Fraction(1, p ** (k - 1)) * beta.value(pv_up, r // (p * p))
            out = out + Fraction(1, p ** (k - 3)) * beta.value(pv_down, r * p * p)
        elif r % p == 0:
            out = out + Fraction(1, p ** (k - 1)) * beta.value(u, r)
            out = out + Fraction(1, p ** (k - 3)) * beta.value(pv_down, r * p * p)
        else:
            out = out + Fraction(p + 1, p ** (k - 1)) * beta.value(u, r)
            out = out + Fraction(p * p - p, p ** (k - 1)) * beta.value(pv_down, r * p * p)
        return out

    return BetaTable(k, beta.N, fn)


def verify_beta_conditions(beta: BetaTable, window: tuple[int, int], N: int) -> dict:
    """Check conditions (ii) and (iii) on the finite window u <= window[0],
    d <= window[1]; identities whose arguments exceed the backing table's
    range are skipped (counted).  Returns a report with located witnesses."""
    u_max, d_max = window
    checked = skipped = 0
    failures = []
    for u in range(1, u_max + 1):
        for d in range(0, d_max + 1):
            # (iii)
            if u > 1 and all(N % p == 0 for p in prime_divisors(u)):
                try:
                    if not _is_zero(beta.value(u, d) - beta.value(1, d * u * u)):
                        failures.append({"cond": "iii", "u": u, "d": d})
                    checked += 1
                except TableRangeError:
                    skipped += 1
            # (ii) for each prime p with p !| N q
            for p in (2, 3, 5, 7):
                if N % p == 0:
                    continue
                v = valuation(u, p)
                q = u // p**v
                try:
                    lhs = beta.value(u, d) - p ** (beta.k - 1) * beta.value(u // p if v else 0, d)
                    rhs = beta.value(q, d * p ** (2 * v))
                    if not _is_zero(lhs - rhs):
                        failures.append({"cond": "ii", "u": u, "d": d, "p": p})
                    checked += 1
                except TableRangeError:
                    skipped += 1
    return {"checked": checked, "skipped": skipped, "failures": failures,
            "ok": not failures}


def _is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return abs(x) < 1e-12
