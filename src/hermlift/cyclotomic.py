"""Exact arithmetic with rational combinations of roots of unity.

A CycloNum of order M is  (sum_k n_k * e[k/M]) / den  with integer numerators
n_k and one positive integer denominator den, where e[x] = exp(2*pi*i*x).
Every operation works on Python ints, so nothing can overflow.  Invariant:
den > 0, no zero numerator is stored, and gcd(den, n_k ...) = 1 (den = 1 for
zero).  Two values of different orders are combined by lazy lifting to the
lcm of the orders.  The zero test is canonical: the numerator vector is
reduced modulo the M-th cyclotomic polynomial Phi_M.

`csum` adds many terms into one dict over one order and one denominator, so a
long sum costs one pass over its terms instead of a copy of the accumulator
per term.  The accumulator starts as a copy of the first term, so `+` and `-`
cost one copy and one pass.  `esum` sums roots of unity given as integer
pairs (exponent, weight): one exponent histogram, and no CycloNum or
Fraction per term.  A rational factor scales the numerators (and the
denominator) directly.

Division is deliberately NOT general: only division by nonzero rationals and
by roots of unity is provided here.  No caller divides by a Gauss sum; one
that must would use 1/G(psi_m; b) = G(psi_m; -b)/m for gcd(b, m) = 1.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]

_phi_cache: dict[int, list[int]] = {}
_red_cache: dict[int, list[list[tuple[int, int]]]] = {}
_cache_lock = threading.Lock()


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, remainder must be 0)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q = num[i + len(den) - 1]
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    if any(num):
        raise ValueError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(M: int) -> list[int]:
    """Coefficients of Phi_M, lowest degree first, via x^M - 1 = prod Phi_d."""
    if M < 1:
        raise ValueError("M must be >= 1")
    with _cache_lock:
        if M in _phi_cache:
            return _phi_cache[M]
    poly = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    with _cache_lock:
        _phi_cache[M] = poly
    return poly


def _reduction_rows(M: int) -> list[list[tuple[int, int]]]:
    """Row k lists the nonzero (index, coefficient) pairs of x^k mod Phi_M in
    the power basis, by ascending index."""
    with _cache_lock:
        if M in _red_cache:
            return _red_cache[M]
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    rows = []
    row = [1] + [0] * (deg - 1) if deg > 0 else []
    for _ in range(M):
        rows.append([(i, r) for i, r in enumerate(row) if r])
        # multiply by x and reduce using x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})
        top = row[-1]
        nxt = [0] + row[:-1]
        if top:
            nxt = [nxt[i] - top * phi[i] for i in range(deg)]
        row = nxt
    with _cache_lock:
        _red_cache[M] = rows
    return rows


class CycloNum:
    """Immutable exact element of a cyclotomic field."""

    __slots__ = ("order", "coeffs", "den")

    def __init__(self, order: int = 1, coeffs: dict[int, Rat] | None = None):
        acc: dict[int, Rat] = {}
        if coeffs:
            for k, c in coeffs.items():
                if type(c) is not int:
                    c = Fraction(c)
                if c:
                    k %= order
                    acc[k] = acc.get(k, 0) + c
        # the lcm of the reduced denominators leaves the numerators coprime to it
        den = 1
        for c in acc.values():
            if type(c) is not int:
                den = math.lcm(den, c.denominator)
        self.order = order
        self.coeffs = {k: int(c * den) for k, c in acc.items() if c}
        self.den = den if self.coeffs else 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CycloNum":
        return _raw(1, {}, 1)

    @staticmethod
    def from_rational(q: Rat) -> "CycloNum":
        if type(q) is int:
            return _raw(1, {0: q} if q else {}, 1)
        q = Fraction(q)
        return _raw(1, {0: q.numerator} if q else {}, q.denominator)

    @staticmethod
    def i() -> "CycloNum":
        return root_of_unity(Fraction(1, 4))

    # -- helpers -----------------------------------------------------------

    def _lifted(self, M: int) -> dict[int, int]:
        s = M // self.order
        if s == 1:
            return self.coeffs
        return {k * s: c for k, c in self.coeffs.items()}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "CycloNum":
        return csum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return _raw(self.order, {k: -c for k, c in self.coeffs.items()}, self.den)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CycloNum":
        if type(other) is not CycloNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return CycloNum.zero()
            # a rational n/d scales the numerators by n and the denominator by d
            n, d = other.numerator, other.denominator
            return _normal(self.order, {k: c * n for k, c in self.coeffs.items()}, self.den * d)
        M = self.order
        if M == other.order:
            a, b = self.coeffs, other.coeffs
        else:
            M = math.lcm(M, other.order)
            a, b = self._lifted(M), other._lifted(M)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial only shifts the exponents: no collisions, no zeros
            (k1, c1), = a.items()
            cs = {(k1 + k2) % M: c1 * c2 for k2, c2 in b.items()}
        else:
            cs = {}
            get = cs.get
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = k1 + k2
                    if k >= M:
                        k -= M
                    cs[k] = get(k, 0) + c1 * c2
            cs = {k: c for k, c in cs.items() if c}
        return _normal(M, cs, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError
            return self * (1 / Fraction(other))
        if isinstance(other, CycloNum):
            # only division by a single root of unity (times a rational)
            if len(other.coeffs) != 1:
                raise TypeError("CycloNum division is only defined by rationals and roots of unity")
            (k, c), = other.coeffs.items()
            # (c/den) e[k/M] has inverse (den/c) e[-k/M]; gcd(c, den) = 1
            inv = _raw(other.order, {(-k) % other.order: other.den if c > 0 else -other.den}, abs(c))
            return self * inv
        return NotImplemented

    def conjugate(self) -> "CycloNum":
        M = self.order
        return _raw(M, {(-k) % M: c for k, c in self.coeffs.items()}, self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        cs = self.coeffs
        if not cs:
            return True
        if len(cs) == 1:
            return False  # a nonzero multiple of a root of unity
        rows = _reduction_rows(self.order)
        vec: dict[int, int] = {}
        for k, c in cs.items():
            for i, r in rows[k]:
                vec[i] = vec.get(i, 0) + c * r
        return not any(vec.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloNum)):
            return (self - _coerce(other)).is_zero()
        return NotImplemented

    def __hash__(self):
        raise TypeError("CycloNum is not hashable")

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- numeric embedding -------------------------------------------------

    def embed(self) -> complex:
        w = 2j * math.pi / self.order
        return sum((c * cmath.exp(w * k) for k, c in self.coeffs.items()), 0j) / self.den

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CycloNum(0)"
        terms = " + ".join(
            f"{Fraction(c, self.den)}*e[{k}/{self.order}]" if k else f"{Fraction(c, self.den)}"
            for k, c in sorted(self.coeffs.items())
        )
        return f"CycloNum({terms})"


_new = object.__new__


def _raw(order: int, coeffs: dict[int, int], den: int) -> CycloNum:
    out = _new(CycloNum)
    out.order = order
    out.coeffs = coeffs
    out.den = den
    return out


def _normal(order: int, cs: dict[int, int], den: int) -> CycloNum:
    """The CycloNum cs/den for numerators cs without zeros: the common
    factor of den and the numerators divided out."""
    if den != 1:
        if not cs:
            den = 1
        else:
            g = math.gcd(den, *cs.values())
            if g != 1:
                den //= g
                cs = {k: c // g for k, c in cs.items()}
    return _raw(order, cs, den)


def _coerce(x) -> CycloNum:
    if type(x) is CycloNum:
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x)} to CycloNum")


def csum(terms: Iterable) -> CycloNum:
    """The sum of CycloNums and rationals, accumulated in place.  The result
    has the lcm of all the terms' orders, like a fold of `+`.  The
    accumulator starts as a copy of the first term's numerators."""
    terms = iter(terms)
    first = next(terms, 0)
    if type(first) is not CycloNum:
        first = _coerce(first)
    M, den, cs = first.order, first.den, dict(first.coeffs)
    for t in terms:
        if type(t) is not CycloNum:
            t = _coerce(t)
        o = t.order
        if M % o:
            L = math.lcm(M, o)
            s = L // M
            cs = {k * s: c for k, c in cs.items()}
            M = L
        if not t.coeffs:
            continue
        d = t.den
        if d == den:
            f = 1
        elif den % d == 0:
            f = den // d
        else:
            up = d // math.gcd(den, d)
            cs = {k: c * up for k, c in cs.items()}
            den *= up
            f = den // d
        s = M // o
        get = cs.get
        if s == 1 and f == 1:
            for k, c in t.coeffs.items():
                cs[k] = get(k, 0) + c
        else:
            for k, c in t.coeffs.items():
                k *= s
                cs[k] = get(k, 0) + c * f
    return _normal(M, {k: c for k, c in cs.items() if c}, den)


def esum(M: int, terms: Iterable[tuple[int, int]], den: int = 1) -> CycloNum:
    """sum w e[k/M] / den over the integer pairs (k, w) of terms, M, den >= 1,
    with one exponent histogram mod M.  The order is M/g, g = gcd(M, every k
    seen): for nonzero weights, the representation csum gives for the same
    monomials."""
    cs: dict[int, int] = {}
    for k, w in terms:
        k %= M
        cs[k] = cs.get(k, 0) + w
    g = math.gcd(M, *cs)
    return _normal(M // g, {k // g: c for k, c in cs.items() if c}, den)


def root_of_unity(r: Rat) -> CycloNum:
    """e[r] = exp(2*pi*i*r) for rational r; the order is the denominator."""
    r = Fraction(r)
    M = r.denominator
    return _raw(M, {r.numerator % M: 1}, 1)

