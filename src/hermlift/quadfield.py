"""The imaginary quadratic field K = Q(sqrt(-D)) for fundamental -D.

Provides integral arithmetic in O_K = Z[omega], the group [d_K] of classes of
the inverse different modulo O_K with canonical representatives, the quadratic
character chi_K with every component psi_m read from it, and the
representation-counting function a_D.

Conventions:
  * D = 2^e * D' with D' odd; e in {0, 2, 3}.
  * omega = (1 + i*sqrt(D))/2 when D = 3 mod 4, omega = i*sqrt(D)/2 when 4 | D.
  * Classes of [d_K]:
      odd D:  i*x/sqrt(D),                 x in Z/D;
      even D: x1/2 + i*x2/sqrt(D),         x1 in Z/2, x2 in Z/(D/2);
    ordered by x ascending (odd) resp. lexicographic (x1, x2) (even).
  * dnorm is D*|u|^2 of the canonical representative: reduced to x^2 mod D,
    in [0, D), at odd D; the integer 2^(e-2)*D'*x1^2 + x2^2 at even D.
    Formulas consume it mod D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import crt, is_squarefree, kronecker, prime_divisors, valuation


class QuadField:
    """Field data for K = Q(sqrt(-D)) with -D a fundamental discriminant."""

    def __init__(self, D: int):
        if D <= 0:
            raise ValueError("D must be positive")
        if D % 4 == 3:
            if not is_squarefree(D):
                raise ValueError(f"-{D} is not a fundamental discriminant (not squarefree)")
            self.e = 0
        elif D % 4 == 0:
            m = D // 4
            if m % 4 not in (1, 2) or not is_squarefree(m):
                raise ValueError(f"-{D} is not a fundamental discriminant")
            self.e = valuation(D, 2)
        else:
            raise ValueError(f"-{D} is not a fundamental discriminant (-D must be 0 or 1 mod 4)")
        self.D = D
        self.Dprime = D >> self.e
        self.primes = prime_divisors(D)  # the prime components, 2 for the even part
        if self.e == 0:
            # omega = (1 + i sqrt(D))/2: trace 1, norm (1+D)/4
            self.omega_trace = 1
            self.omega_norm = (1 + D) // 4
        else:
            # omega = i sqrt(D)/2: trace 0, norm D/4
            self.omega_trace = 0
            self.omega_norm = D // 4
        self.unit_count = 6 if D == 3 else 4 if D == 4 else 2
        self._chi_p: dict[int, tuple[int, ...]] = {}  # p -> period table of chi_p

    def chi(self, n: int) -> int:
        """The field character chi_K(n) = (-D | n)."""
        return kronecker(-self.D, n)

    def chi2(self, n: int) -> int:
        """The 2-component chi_2 of chi_K (requires 4 | D)."""
        return self.chi_p(2, n)

    def chi_p(self, p: int, n: int) -> int:
        """chi_p(n) for a prime component p of D (use p=2 for the even part),
        read from the period table of chi_component(self, p or 2^e)."""
        table = self._chi_p.get(p)
        if table is None:
            if p == 2 and self.e == 0:
                raise ValueError("chi_2 only exists for even discriminant")
            table = self._chi_p[p] = chi_component(self, 2**self.e if p == 2 else p).table
        return table[n % len(table)]

    def __repr__(self):
        return f"QuadField(D={self.D})"

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.D == self.D

    def __hash__(self):
        return hash(("QuadField", self.D))


@dataclass(frozen=True, slots=True)
class AlgInt:
    """a + b*omega in O_K (omega depends on the field)."""

    field: QuadField
    a: int
    b: int

    def __add__(self, other: "AlgInt") -> "AlgInt":
        return AlgInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "AlgInt") -> "AlgInt":
        return AlgInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "AlgInt":
        return AlgInt(self.field, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgInt(self.field, self.a * other, self.b * other)
        # omega^2 = t*omega - n  with t = Tr(omega), n = N(omega)
        t, n = self.field.omega_trace, self.field.omega_norm
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return AlgInt(self.field, a1 * a2 - n * b1 * b2, a1 * b2 + b1 * a2 + t * b1 * b2)

    __rmul__ = __mul__

    def conj(self) -> "AlgInt":
        # conj(omega) = Tr(omega) - omega
        return AlgInt(self.field, self.a + self.field.omega_trace * self.b, -self.b)

    def norm(self) -> int:
        t, n = self.field.omega_trace, self.field.omega_norm
        return self.a * self.a + t * self.a * self.b + n * self.b * self.b


@dataclass(frozen=True)
class DiffClass:
    """A class of [d_K] = (i/sqrt(D)) O_K / O_K with canonical representative."""

    field: QuadField
    key: tuple[int, ...]  # (x,) for odd D, (x1, x2) for even D
    dnorm: int            # D|u|^2: x^2 mod D (odd D), 2^(e-2) D' x1^2 + x2^2 (even D)
    mult: int             # a_u = a_D(-D|u|^2)

    def coords(self) -> tuple[Fraction, Fraction]:
        """(q1, q2) with u = q1 + q2 * i*sqrt(D)."""
        D = self.field.D
        if self.field.e == 0:
            (x,) = self.key
            return Fraction(0), Fraction(x, D)
        x1, x2 = self.key
        return Fraction(x1, 2), Fraction(x2, D)

    def scaled(self, t: int) -> "DiffClass":
        """The class t*u for an integer t."""
        D = self.field.D
        if self.field.e == 0:
            (x,) = self.key
            return class_from_key(self.field, ((t * x) % D,))
        x1, x2 = self.key
        return class_from_key(self.field, ((t * x1) % 2, (t * x2) % (D // 2)))

    def __repr__(self):
        return f"DiffClass({self.key})"


@lru_cache(maxsize=None)
def _classes(D: int) -> tuple[DiffClass, ...]:
    field = QuadField(D)
    out = []
    if field.e == 0:
        keys = [(x,) for x in range(D)]
        dnorms = [x * x % D for (x,) in keys]
    else:
        keys = [(x1, x2) for x1 in range(2) for x2 in range(D // 2)]
        lead = 2 ** (field.e - 2) * field.Dprime
        dnorms = [(lead * x1 * x1 + x2 * x2) for x1, x2 in keys]
    for key, dn in zip(keys, dnorms):
        out.append(DiffClass(field, key, dn, a_D(field, -dn)))
    return tuple(out)


def classes(field: QuadField) -> list[DiffClass]:
    """The D classes of [d_K] in canonical order, with dnorm and mult filled."""
    return list(_classes(field.D))


def class_from_key(field: QuadField, key: tuple[int, ...]) -> DiffClass:
    for u in _classes(field.D):
        if u.key == key:
            return u
    raise KeyError(key)


class Character:
    """A character of modulus m, callable through its table of values mod m."""

    def __init__(self, m: int, table: tuple[int, ...]):
        self.modulus = m
        self.table = table

    def __call__(self, n: int) -> int:
        return self.table[n % self.modulus]

    @property
    def parity(self) -> int:
        """psi(-1)."""
        return self(-1)

    def __repr__(self):
        return f"Character(mod {self.modulus})"


@lru_cache(maxsize=256)
def chi_component(field: QuadField, m: int) -> Character:
    """psi_m = prod_{p | m prime} chi_p for m | D with gcd(m, D/m) = 1, read
    from chi_K = psi_m * psi_{D/m}: psi_m(n) = chi_K(n') for n' = n mod m and
    n' = 1 mod D/m.  Its period is m (the 2-part of m is all of 2^e)."""
    D = field.D
    if m < 1 or D % m != 0:
        raise ValueError(f"m = {m} must divide D = {D}")
    if math.gcd(m, D // m) != 1:
        raise ValueError(f"m = {m} and D/m = {D // m} must be coprime")
    return Character(m, tuple(field.chi(crt([(n, m), (1, D // m)])) for n in range(m)))


def a_D(field: QuadField, ell: int) -> int:
    """a_D(ell) = prod_{p | D} (1 + chi_p(-ell)), the number of classes u with
    D|u|^2 = -ell mod D (the 2-part 2^e counts once via chi_2)."""
    out = 1
    for p in field.primes:
        out *= 1 + field.chi_p(p, -ell)
        if out == 0:
            return 0
    return out
