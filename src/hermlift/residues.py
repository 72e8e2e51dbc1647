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

A theta matrix arrives as the integer term table of `thetamat.theta_terms`
(rows u, v, k, w for w e[k/L]) and is read with one gather from the power
table and one scatter-add (`matrix`); only its per-sigma scalar is a CycloNum
(`of`).  The guards raise, so they hold under python -O too.
"""

from __future__ import annotations

import math

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
        self._gauss: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    def of(self, x: CycloNum) -> tuple[np.ndarray, int, int]:
        """(residues, ||numerators||_1, den) of x = numerators/den."""
        p = self.p
        if self.L % x.order:
            raise ValueError("value outside Q(zeta_L)")
        if x.den % p == 0:
            raise ValueError("p divides the denominator")
        k = np.array(list(x.coeffs), dtype=np.int64) * (self.L // x.order)
        n = np.array([c % p for c in x.coeffs.values()], dtype=np.int64)
        res = (n[:, None] * self.pw[k] % p).sum(axis=0) % p
        return res * pow(x.den, -1, p) % p, sum(map(abs, x.coeffs.values())), x.den

    def matrix(self, terms: np.ndarray, n: int) -> tuple[np.ndarray, int]:
        """(residues [u, v, t], bound) of the n x n matrix of a term table,
        int64 rows (u, v, k, w) summing to sum w e[k/L] per entry
        (`thetamat.theta_terms`): bound is the largest column sum of |w|,
        submultiplicative."""
        p = self.p
        u, v, k, w = terms.T
        out = np.zeros((n, n, len(self.units)), dtype=np.int64)
        np.add.at(out, (u, v), w[:, None] % p * self.pw[k] % p)
        cols = np.zeros(n, dtype=np.int64)
        np.add.at(cols, v, np.abs(w))
        return out % p, int(cols.max())

    def gauss(self, psi, b: int) -> tuple[np.ndarray, int]:
        """(residues, ||numerators||_1) of sum_{a mod m} psi(a) e[ab/m] = G(psi; b)."""
        m = psi.modulus
        if (m, b % m) not in self._gauss:
            table = np.array(psi.table, dtype=np.int64)
            ex = [a * b % m * (self.L // m) for a in range(m)]
            self._gauss[m, b % m] = (table @ self.pw[ex] % self.p, int(np.abs(table).sum()))
        return self._gauss[m, b % m]
