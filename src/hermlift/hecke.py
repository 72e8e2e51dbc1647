"""Hecke layer for the degree-2 Hermitian Maass space.

Three pieces:
  * BetaTable -- the two-variable function beta(u, v) characterizing Maass
    forms: c_F(T) = beta(eps(T), D det(T)/eps(T)^2), subject to
      (ii)  beta(p^v q, d) - p^(k-1) beta(p^(v-1) q, d) = beta(q, d p^(2v))
            for every prime p not dividing N q,
      (iii) beta(u, v) = beta(1, v u^2) for u | N^infinity;
  * the right-coset representatives R_N of the inert-prime Hecke operator
    T_p = Gamma_{0,2}(N) diag(I, pI) Gamma_{0,2}(N) (count 1 + p + p^3 + p^4),
    integral unitary 4x4 matrices in U(2,2)(O_K), one [n, 4, 4, 2] array of
    the integer pairs (a, b) of their entries a + b*omega, and
    verify_reps_distinct, which keys each coset by the normalized Plücker
    vector of the top two rows mod p, for all representatives at once:
    between elements of Gamma_{0,2}(N), equal keys hold exactly when two
    representatives lie in one coset, so distinct keys decide distinctness;
  * beta_Tp -- the three-branch recursion transporting beta under T_p, which
    preserves conditions (ii)/(iii) (checked by verify_beta_conditions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import is_prime, prime_divisors, valuation
from .quadfield import QuadField


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
    """Raise ValueError unless every matrix of the [n, 4, 4, 2] pairs g is
    integral and lies in U(2,2)(O_K) with lower-left block divisible by N.
    An int64 g whose entries exceed _pair_dtype's bound is checked as object."""
    if g.dtype == object:
        if not all(isinstance(x, int) for x in g.flat):
            raise ValueError("entries must be integral")
    elif _pair_dtype(field, max(int(g.max(initial=0)), -int(g.min(initial=0)))) is object:
        # the bound from max and min: np.abs(-2^63) wraps to -2^63
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


# the largest family has p^4 members of 32 int64 each: p <= 19 is admitted
_FAMILY = 2**17


def _check_coset_prime(field: QuadField, p: int, N: int) -> None:
    """_check_inert, and OverflowError for p^4 > _FAMILY (so keys stay below p^12 < 2^63)."""
    _check_inert(field, p, N)
    if p**4 > _FAMILY:
        raise OverflowError(f"p = {p} needs a coset family of {p**4} members, over the limit {_FAMILY}")


def _rep_array(field: QuadField, p: int, N: int) -> np.ndarray:
    """coset_reps as one [n, 4, 4, 2] array of integer pairs, each family
    checked: in U(2,2)(O_K), lower-left block divisible by N, and the count."""
    _check_coset_prime(field, p, N)
    fams = list(_families(field, p, N))
    for g in fams:
        _check_unitary(field, g, N)
    g = np.concatenate(fams)
    if len(g) != 1 + p + p**3 + p**4:
        raise AssertionError(f"{len(g)} coset representatives, not 1 + p + p^3 + p^4")
    return g


def coset_reps(field: QuadField, p: int, N: int) -> np.ndarray:
    """The 1 + p^4 + p + p^3 right-coset representatives R_N for
    alpha^{-1} Gamma_{0,2}(Np) alpha \\ Gamma_{0,2}(N), alpha = diag(I, pI),
    p inert and prime to N: the checked [n, 4, 4, 2] array of _rep_array,
    whose entry [r, i, j] is the pair (a, b) of entry a + b*omega of
    representative r, int64 under _pair_dtype's bound and Python ints above it."""
    return _rep_array(field, p, N)


def _plucker_keys(field: QuadField, p: int, top: np.ndarray) -> np.ndarray:
    """The key of each [2, 4, 2] block of integer pairs in top, the rows
    [A | B]: the six 2x2 minors of the rows over F_{p^2}, scaled by the
    inverse of the first nonzero one, read as one base-p^2 integer."""
    t, n = field.omega_trace % p, field.omega_norm % p
    top = (top % p).astype(np.int64)

    def mul(x0, x1, y0, y1):  # omega^2 = t*omega - n
        return (x0 * y0 - n * x1 * y1) % p, (x0 * y1 + x1 * y0 + t * x1 * y1) % p

    i, j = np.triu_indices(4, 1)
    u0, u1 = mul(top[:, 0, i, 0], top[:, 0, i, 1], top[:, 1, j, 0], top[:, 1, j, 1])
    v0, v1 = mul(top[:, 0, j, 0], top[:, 0, j, 1], top[:, 1, i, 0], top[:, 1, i, 1])
    m0, m1 = (u0 - v0) % p, (u1 - v1) % p
    # x^{-1} = conj(x) N(x)^{-1}, and N(x) != 0 mod p for x != 0 as p is inert
    first = np.argmax((m0 != 0) | (m1 != 0), axis=1)[:, None]
    a, b = np.take_along_axis(m0, first, 1), np.take_along_axis(m1, first, 1)
    w = np.array([0] + [pow(z, -1, p) for z in range(1, p)])[(a * a + t * a * b + n * b * b) % p]
    k0, k1 = mul(m0, m1, (a + t * b) * w % p, -b * w % p)
    return (k0 * p + k1) @ (p * p) ** np.arange(6, dtype=np.int64)


def verify_reps_distinct(field: QuadField, p: int, N: int,
                         reps: np.ndarray | list | None = None) -> bool:
    """Exact check that reps lie in pairwise distinct right cosets.  reps,
    by default those of coset_reps, may be any [n, 4, 4, 2] array or nested
    list of the integer pairs (a, b) of entries a + b*omega; given reps are
    checked to be integral, in U(2,2)(O_K) and with lower-left block
    divisible by N, as coset_reps checks its own, but their count is not.

    The key of a representative is the normalized Plücker vector of its top
    two rows [A | B] mod p.  For r1, r2 in Gamma_{0,2}(N), y = r2 r1^{-1} is
    in Gamma_{0,2}(N) too, and r1, r2 lie in one coset iff y's B block is
    0 mod p.  Now top(r2) = A_y top(r1) + B_y bot(r1) mod p.  If B_y = 0,
    then det A_y is a unit (det y = det A_y det D_y is one), so both tops
    span one plane and the keys are equal.  If the keys are equal, top(r2)
    = M top(r1) for some M, and as the rows of r1 are a basis mod p (det r1
    is a unit), B_y = 0.  So equal keys mean one coset, and the reps are
    distinct iff their keys are.  A unitary g has A B* = B A*, so its key is
    a totally isotropic plane of J4 mod p; H(3, p^2) has exactly
    (p + 1)(p^3 + 1) = 1 + p + p^3 + p^4 of them (Hirschfeld and Thas,
    General Galois Geometries), so coset_reps's count, distinct keys and
    unitarity prove a complete system at every p.
    """
    if reps is None:
        g = _rep_array(field, p, N)
    else:
        _check_coset_prime(field, p, N)
        # anything but an int64 array as Python ints: np.asarray could read a
        # list of large integers as float64
        int64 = isinstance(reps, np.ndarray) and reps.dtype == np.int64
        g = (reps if int64 else np.array(reps, dtype=object)).reshape(-1, 4, 4, 2)
        _check_unitary(field, g, N)
    keys = _plucker_keys(field, p, g[:, :2])
    return len(np.unique(keys)) == len(keys)


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

