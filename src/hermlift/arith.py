"""Elementary integer arithmetic used throughout the package.

Factorization by trial division (its inputs are discriminants, levels,
cyclotomic orders and coefficient indices, all small), primality by
deterministic Miller-Rabin (the residue primes are near 10**9), p-adic
valuations, the Kronecker symbol, CRT, Bezout and divisor enumeration.
Everything here is a pure function.
"""

from __future__ import annotations

import math
from typing import Iterable


def factorize(n: int) -> list[tuple[int, int]]:
    """Exact factorization of a positive integer by trial division.

    Returns a list of (prime, exponent) pairs with primes strictly
    increasing; factorize(1) == [].
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


# Miller-Rabin with the first 12 primes as bases decides every n below
# _MR_BOUND, the least strong pseudoprime to all of them (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is exact only below {_MR_BOUND}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _MR_BASES:
        # a prime n has x = a^d = 1 or x^(2^i) = -1 for some i < s
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def valuation(n: int, p: int) -> int:
    """val_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), with the standard conventions at 2, -1, 0.

    (a|0) = 1 iff |a| = 1 else 0.  (0|0) is undefined.
    """
    if a == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # pull out factors of 2 from n
    result = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # now n odd positive; iterative Jacobi
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt(residues: Iterable[tuple[int, int]]) -> int:
    """Least non-negative solution of x = r_i (mod m_i).

    Moduli need not be pairwise coprime; inconsistent systems raise
    ValueError.
    """
    x, mod = 0, 1
    for r, m in residues:
        if m <= 0:
            raise ValueError(f"modulus must be positive, got {m}")
        g = math.gcd(mod, m)
        if (r - x) % g != 0:
            raise ValueError(f"inconsistent congruences: x={x} mod {mod}, x={r} mod {m}")
        lcm = mod // g * m
        # solve x + mod*t = r (mod m)
        t = ((r - x) // g * pow(mod // g, -1, m // g)) % (m // g) if m // g > 1 else 0
        x = (x + mod * t) % lcm
        mod = lcm
    return x % mod


def component(D: int, mu: int) -> int:
    """The mu-component of D: prod over primes p | mu of p^{val_p(D)}."""
    if D < 1 or mu < 1:
        raise ValueError("component expects positive integers")
    out = 1
    for p in prime_divisors(mu):
        out *= p ** valuation(D, p)
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def inverse_mod(a: int, m: int) -> int:
    """Multiplicative inverse of a modulo m >= 1 (returns 0 for m == 1)."""
    if m == 1:
        return 0
    return pow(a, -1, m)
