"""Values of Q(zeta_L) as residues modulo a prime p = 1 (mod L).

x = X/den (X in Z[zeta_L], p not dividing den) is stored as its residues
x(omega^t) for omega of exact order L mod p and t in (Z/L)^x, the phi(L)
maps Z[zeta_L] -> F_p: sums and products act entrywise.

Certificate (von zur Gathen and Gerhard, *Modern Computer Algebra*, 3rd ed.,
ch. 5, 8): if the residues of X vanish mod p_1, ..., p_r, then
(p_1...p_r)^phi(L) divides N(X), and |N(X)| <= ||X||_1^phi(L) for the sum
||X||_1 of |numerators| of any representation.  So ||X||_1 < p_1...p_r makes
X = 0, and one nonzero residue proves X != 0.  int64 guard: a caller sums at
most `terms` products of two residues, and terms * (p-1)^2 < 2^63.

Every sum of terms w e[k/L] is read by `read`, one power-table gather and
one scatter-add: theta term tables (`matrix`), a CycloNum (`of`) and lists
of (exponent, weight) pairs (`sums`), the inner sums' Gauss sums and closed
forms.  `certified` takes primes until the certificate holds, for every
exact criterion verdict and for campaign c02.  The guards raise, so they
hold under python -O too.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .arith import is_prime, prime_divisors
from .cyclotomic import CycloNum

_WORD = 2**63  # the primes are chosen with terms * (p-1)^2 below this


def certifies_zero(bound: int, primes: list[int]) -> bool:
    """True when residues that vanish modulo every prime in `primes` prove
    X = 0 for an X in Z[zeta_L] with ||X||_1 <= bound."""
    return bound < math.prod(primes)


class ResidueRing:
    """Q(zeta_L) mod the largest prime p = 1 (mod L) below `below` within the
    int64 guard; `pw[e]` holds the residues omega^(t e) of e[e/L], t in `units`."""

    def __init__(self, L: int, terms: int, below: int | None = None):
        k = min(math.isqrt((_WORD - 1) // terms), (below or _WORD) - 2) // L
        while k > 0 and not is_prime(k * L + 1):
            k -= 1
        p = k * L + 1
        if k <= 0 or terms * (p - 1) ** 2 >= 2**63:
            raise OverflowError("no prime within the int64 guard")
        omega = next(w for w in (pow(g, (p - 1) // L, p) for g in range(2, p))
                     if all(pow(w, L // q, p) != 1 for q in prime_divisors(L)))
        powers = [pow(omega, e, p) for e in range(L)]
        self.L, self.p = L, p
        self.units = [t for t in range(L) if math.gcd(t, L) == 1]
        self.pw = np.array([[powers[t * e % L] for t in self.units] for e in range(L)],
                           dtype=np.int64)

    def read(self, at: np.ndarray, k: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
        """Residues [i, t] of the n sums sum w e[k/L] over the terms with
        index at = i, from int64 arrays of indices, exponents and weights
        already reduced mod p: one power-table gather and one scatter-add."""
        out = np.zeros((n, len(self.units)), dtype=np.int64)
        np.add.at(out, at, w[:, None] * self.pw[k % self.L] % self.p)
        return out % self.p

    def sums(self, lists) -> tuple[np.ndarray, list[int]]:
        """Residues [i, t] and ||.||_1 of the sum of each list of (exponent
        over L, weight) pairs, the pairs reduced mod L and p before they
        enter int64."""
        pairs = [*chain.from_iterable(lists)]
        k = np.array([e % self.L for e, _ in pairs], dtype=np.int64)
        w = np.array([v % self.p for _, v in pairs], dtype=np.int64)
        res = self.read(np.repeat(np.arange(len(lists)), [len(x) for x in lists]), k, w, len(lists))
        return res, [sum(abs(v) for _, v in x) for x in lists]

    def of(self, x: CycloNum) -> tuple[np.ndarray, int, int]:
        """(residues, ||numerators||_1, den) of x = numerators/den."""
        if self.L % x.order:
            raise ValueError("value outside Q(zeta_L)")
        if x.den % self.p == 0:
            raise ValueError("p divides the denominator")
        (res,), (norm,) = self.sums([[(k * (self.L // x.order), c) for k, c in x.coeffs.items()]])
        return res * pow(x.den, -1, self.p) % self.p, norm, x.den

    def matrix(self, terms: np.ndarray, n: int) -> tuple[np.ndarray, int]:
        """(residues [u, v, t], bound) of the n x n matrix of a term table,
        int64 rows (u, v, k, w) summing to sum w e[k/L] per entry
        (`thetamat.theta_terms`): bound is the largest column sum of |w|,
        submultiplicative."""
        u, v, k, w = terms.T
        cols = np.zeros(n, dtype=np.int64)
        np.add.at(cols, v, np.abs(w))
        return self.read(u * n + v, k, w % self.p, n * n).reshape(n, n, -1), int(cols.max())


def certified(rings: list[ResidueRing], L: int, terms: int, read) -> tuple[list, int]:
    """[(p, residues)] of read(ring) -> (residues of X, B >= ||X||_1) mod one
    prime after another, the rings taken so far kept in `rings`, until their
    product certifies a zero under the largest B; and that B."""
    done, bound = [], 0
    while not done or not certifies_zero(bound, [p for p, _ in done]):
        if len(done) == len(rings):
            rings.append(ResidueRing(L, terms, below=rings[-1].p if rings else None))
        x, b = read(rings[len(done)])
        done.append((rings[len(done)].p, x))
        bound = max(bound, b)
    return done, bound
