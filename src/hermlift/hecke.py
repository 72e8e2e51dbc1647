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
# integral unitary matrices and the T_p coset representatives


@dataclass(frozen=True)
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
        _check_unitary(field, rs)
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


def _check_unitary(field: QuadField, rows) -> None:
    """Raise unless g* J4 g = J4, on the integer pairs (x0, x1) of the entries
    x0 + x1*omega: conj(x) y = ((x0 + t x1) y0 + n x1 y1, x0 y1 - x1 y0) with
    t, n the trace and norm of omega."""
    # J4 g = [-g_2; -g_3; g_0; g_1], so (g* J4 g)_{ij} = sum_{k=0,1} conj(g_{k+2,i})
    # g_{kj} - conj(g_{ki}) g_{k+2,j}.  It is skew-hermitian (J4 is real and skew):
    # the entries on and above the diagonal decide it, (0,2), (1,3) = -1, the rest 0
    t, n = field.omega_trace, field.omega_norm
    g = [[(x.a, x.b) for x in row] for row in rows]
    for i in range(4):
        for j in range(i, 4):
            re = im = 0
            for k in (0, 1):
                (a0, a1), (b0, b1) = g[k + 2][i], g[k][j]
                (c0, c1), (d0, d1) = g[k][i], g[k + 2][j]
                re += (a0 + t * a1) * b0 + n * a1 * b1 - (c0 + t * c1) * d0 - n * c1 * d1
                im += a0 * b1 - a1 * b0 - c0 * d1 + c1 * d0
            if (re, im) != ((-1, 0) if j == i + 2 else (0, 0)):
                raise ValueError("matrix is not in U(2,2)(O_K)")


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
    U(2,2)(O_K) with lower-left block divisible by N."""
    _check_inert(field, p, N)
    xi, lam = _bezout_pair(p, N)
    reps = []

    def add(rows):
        g = UnitaryMat4.make(field, rows)
        if not g.c_block_divisible_by(N):
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
                    if beta.value(u, d) != beta.value(1, d * u * u):
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
                    if lhs != rhs:
                        failures.append({"cond": "ii", "u": u, "d": d, "p": p})
                    checked += 1
                except TableRangeError:
                    skipped += 1
    return {"checked": checked, "skipped": skipped, "failures": failures,
            "ok": not failures}

