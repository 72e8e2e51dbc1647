"""Exact arithmetic with rational combinations of roots of unity.

A CycloNum is a finite sum  sum_k  c_k * e[k/M]  with rational c_k, where
e[x] = exp(2*pi*i*x).  Two values of different orders are combined by lazy
lifting to the lcm of the orders.  The zero test is canonical: the exponent
vector is reduced modulo the M-th cyclotomic polynomial Phi_M.

Division is deliberately NOT general: only division by nonzero rationals and
by roots of unity is provided here (Gauss sums are inverted at call sites via
the inversion identities 1/G(psi_m; b) = G(psi_m; -b)/m).
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_phi_cache: dict[int, list[int]] = {}
_red_cache: dict[int, list[list[int]]] = {}
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
    assert all(c == 0 for c in num), "non-exact polynomial division"
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


def _reduction_rows(M: int) -> list[list[int]]:
    """Row k is the integer vector of x^k mod Phi_M in the power basis."""
    with _cache_lock:
        if M in _red_cache:
            return _red_cache[M]
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    rows = []
    row = [1] + [0] * (deg - 1) if deg > 0 else []
    for _ in range(M):
        rows.append(row)
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

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int = 1, coeffs: dict[int, Fraction] | None = None):
        self.order = order
        cs = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c:
                    k %= order
                    if k in cs:
                        c += cs[k]
                        if c:
                            cs[k] = c
                        else:
                            del cs[k]
                    else:
                        cs[k] = c
        self.coeffs = cs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CycloNum":
        return CycloNum(1, {})

    @staticmethod
    def from_rational(q: Rat) -> "CycloNum":
        return CycloNum(1, {0: Fraction(q)})

    @staticmethod
    def i() -> "CycloNum":
        return root_of_unity(Fraction(1, 4))

    # -- helpers -----------------------------------------------------------

    def _lifted(self, M: int) -> dict[int, Fraction]:
        s = M // self.order
        if s == 1:
            return self.coeffs
        return {k * s: c for k, c in self.coeffs.items()}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        M = _lcm(self.order, other.order)
        cs = dict(self._lifted(M))
        for k, c in other._lifted(M).items():
            v = cs.get(k, 0) + c
            if v:
                cs[k] = v
            elif k in cs:
                del cs[k]
        return _raw(M, cs)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return _raw(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycloNum.zero()
            q = Fraction(other)
            return _raw(self.order, {k: c * q for k, c in self.coeffs.items()})
        other = _coerce(other)
        M = _lcm(self.order, other.order)
        a, b = self._lifted(M), other._lifted(M)
        if len(a) > len(b):
            a, b = b, a
        cs: dict[int, Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                if k >= M:
                    k -= M
                v = cs.get(k)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    cs[k] = v
                elif k in cs:
                    del cs[k]
        return _raw(M, cs)

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
            inv = _raw(other.order, {(-k) % other.order: 1 / c})
            return self * inv
        return NotImplemented

    def conjugate(self) -> "CycloNum":
        return _raw(self.order, {(-k) % self.order: c for k, c in self.coeffs.items()})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        if not self.coeffs:
            return True
        # clear denominators so the reduction runs on machine integers
        den = 1
        for c in self.coeffs.values():
            den = den // math.gcd(den, c.denominator) * c.denominator
        rows = _reduction_rows(self.order)
        deg = len(rows[0])
        vec = [0] * deg
        for k, c in self.coeffs.items():
            ci = c.numerator * (den // c.denominator)
            row = rows[k]
            for i in range(deg):
                if row[i]:
                    vec[i] += ci * row[i]
        return not any(vec)

    def is_rational(self) -> bool:
        return (self - self.rational_part()).is_zero()

    def rational_part(self) -> Fraction:
        """The coefficient of e[0] after canonical reduction; equals the value
        itself when the number is rational."""
        rows = _reduction_rows(self.order)
        deg = len(rows[0])
        vec = [Fraction(0)] * deg
        for k, c in self.coeffs.items():
            row = rows[k]
            for i in range(deg):
                if row[i]:
                    vec[i] += c * row[i]
        # constant term of the power-basis representation is only the full
        # rational value when all other basis coefficients vanish; callers
        # pair this with is_rational().
        return vec[0] if deg > 0 else Fraction(0)

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
        return sum((complex(c) * cmath.exp(w * k) for k, c in self.coeffs.items()), 0j)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CycloNum(0)"
        terms = " + ".join(
            f"{c}*e[{k}/{self.order}]" if k else f"{c}" for k, c in sorted(self.coeffs.items())
        )
        return f"CycloNum({terms})"


def _raw(order: int, coeffs: dict[int, Fraction]) -> CycloNum:
    out = CycloNum.__new__(CycloNum)
    out.order = order
    out.coeffs = coeffs
    return out


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x)} to CycloNum")


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def root_of_unity(r: Rat) -> CycloNum:
    """e[r] = exp(2*pi*i*r) for rational r; the order is the denominator."""
    r = Fraction(r)
    M = r.denominator
    return _raw(M, {r.numerator % M: Fraction(1)})


def e_frac(num: int, den: int) -> CycloNum:
    """e[num/den]."""
    return root_of_unity(Fraction(num, den))


def ext_root(r: Rat, M: int) -> CycloNum:
    """e[r/M] in the extended sense: r is a rational with denominator coprime
    to M, and e[r/M] means e[s/M] for the integer s = r mod M (denominator
    inverted modulo M)."""
    if M < 0:
        return ext_root(-Fraction(r), -M)
    if M == 1:
        return CycloNum.from_rational(1)
    r = Fraction(r)
    if math.gcd(r.denominator, M) != 1:
        raise ValueError(f"denominator of {r} not invertible mod {M}")
    s = r.numerator * pow(r.denominator, -1, M) % M
    return e_frac(s, M)
