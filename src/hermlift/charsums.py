"""Gauss sums, the Gauss--Salie identity, and quadratic norm sums.

All sums are evaluated exactly in the cyclotomic ring, each as one exponent
histogram (`esum`): the terms are integer pairs (exponent, weight), and no
CycloNum or Fraction is built per term.  The closed forms
G(psi_m) = eps(psi_m)*sqrt(m) are checked in squared (exact) and embedded
(numeric) form.

What is fixed per prime or field is built once, in bounded caches: the
Legendre character mod p is a table of its values (`legendre`), the Gauss sum
G(psi; z) of the Salie closed form is kept per (p, z mod p), and a norm sum
reads the histogram of |gamma|^2 mod N over O_K/N, counted once per
(Tr omega, N(omega), N), so each t costs at most N terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime, kronecker
from .cyclotomic import CycloNum, esum
from .quadfield import Character, QuadField, chi_component


@lru_cache(maxsize=64)
def legendre(p: int) -> Character:
    """The Legendre character (* | p) mod an odd prime p, one table per prime.
    A composite p is refused: its Kronecker table is the Jacobi symbol."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return Character(p, tuple(kronecker(n, p) for n in range(p)))


@lru_cache(maxsize=1024)
def _legendre_gauss(p: int, z: int) -> CycloNum:
    """G(psi; z) for the Legendre character psi mod p and 0 <= z < p."""
    return gauss_sum(legendre(p), z)


def gauss_sum(psi, b: int = 1) -> CycloNum:
    """G(psi; b) = sum_{a mod M} psi(a) e[a*b/M], exactly."""
    M = psi.modulus
    return esum(M, ((a * b, v) for a in range(M) if (v := psi(a))))


@lru_cache(maxsize=None)
def i_sqrtD(D: int) -> CycloNum:
    """G(chi_K) = i*sqrt(D) for the field of discriminant -D (chi_K is odd);
    -i/sqrt(D), i/sqrt(D) and -i*sqrt(D) are rational multiples of it."""
    return gauss_sum(chi_component(QuadField(D), D))


def check_closed_form(psi: Character) -> bool:
    """True iff G(psi_m)^2 = psi_m(-1)*m exactly and the embedding matches
    eps(psi_m)*sqrt(m) within 1e-9."""
    m = psi.modulus
    g = gauss_sum(psi)
    if not (g * g - psi.parity * m).is_zero():
        return False
    target = math.sqrt(m) * (1 if psi.parity == 1 else 1j)
    return abs(g.embed() - target) < 1e-9


def salie_lhs(p: int, x: int, y: int, z: int) -> CycloNum:
    """sum_{j=1}^{p-1} (j|p) e[z(j x^2 + j^{-1} y^2)/p], by brute force."""
    psi = legendre(p).table
    return esum(p, ((z * (j * x * x + pow(j, -1, p) * y * y), psi[j]) for j in range(1, p)))


def salie_rhs(p: int, x: int, y: int, z: int) -> CycloNum:
    """G(psi; z) * [(psi(x^2)+psi(y^2))/(1+psi(y^2))] * sum_{g^2=y^2} e[2xzg/p].

    psi(x^2) is 0 when p | x and 1 otherwise, so the middle factor is the
    rational 0, 1/2 or 1 and the division is always by 1 or 2.
    """
    psi = legendre(p)
    mid = Fraction(psi(x * x) + psi(y * y), 1 + psi(y * y))
    if mid == 0:
        return CycloNum.zero()
    tail = esum(p, ((2 * x * z * g, 1) for g in range(p) if (g * g - y * y) % p == 0))
    return _legendre_gauss(p, z % p) * mid * tail


def salie_check(p: int, x: int, y: int, z: int) -> tuple[CycloNum, CycloNum, bool]:
    if z % p == 0:
        raise ValueError("p must not divide z")
    lhs = salie_lhs(p, x, y, z)
    rhs = salie_rhs(p, x, y, z)
    return lhs, rhs, (lhs - rhs).is_zero()


@lru_cache(maxsize=512)
def _norm_counts(tr: int, nm: int, N: int) -> tuple[int, ...]:
    """The number of gamma = a + b*omega in O_K/N O_K with |gamma|^2 = r mod N,
    for r < N (omega of trace tr and norm nm).  Each value is below N^2 (2 + N),
    far inside int64 for any N^2 grid that fits in memory."""
    a = np.arange(N, dtype=np.int64)[:, None]
    b = np.arange(N, dtype=np.int64)[None, :]
    q = (a * a + tr * a * b + nm % N * b * b) % N
    return tuple(np.bincount(q.ravel(), minlength=N).tolist())


def norm_sum(field: QuadField, N: int, t: int) -> CycloNum:
    """sum over gamma in O_K/N O_K of e[t|gamma|^2 / N], from the histogram
    of |gamma|^2 mod N: at most N terms."""
    counts = _norm_counts(field.omega_trace, field.omega_norm, N)
    return esum(N, ((t * r, c) for r, c in enumerate(counts) if c))


def norm_sum_check(field: QuadField, N: int, t: int) -> bool:
    """True iff the norm sum equals chi(N)*N exactly (needs gcd(D,N)=1=gcd(t,N))."""
    if math.gcd(field.D, N) != 1:
        raise ValueError("N must be coprime to D")
    if math.gcd(t, N) != 1:
        raise ValueError("t must be coprime to N")
    return (norm_sum(field, N, t) - field.chi(N) * N).is_zero()
