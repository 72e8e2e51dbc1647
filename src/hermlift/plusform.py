"""q-expansions with the quadratic character, the plus-space test, the
matrices P_m and the slash action on elliptic modular forms.

A QExpansion stores finitely many Fourier coefficients of a weight-(k-1)
form g(tau) = sum_l a_l e[l*tau/denom].  Coefficients are exact: int,
Fraction or CycloNum, or None ("unspecified"), and anything else is refused
when the expansion is built.  Access beyond the stored range is an explicit
TruncationError, never a silent zero.  Unspecified slots are skipped by the
plus test and by the numeric evaluator.

P_m is an SL2(Z) matrix congruent to J mod m^2 and to I mod (nN)^2, built by
CRT on the entries followed by a strong-approximation lift; the congruences
are re-verified exactly on every call.  The slash action is the unnormalized
(c*tau+d)^(-weight) g(gamma*tau), with no determinant factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .arith import bezout, crt, divisors
from .cyclotomic import CycloNum
from .quadfield import QuadField, a_D
from .thetamat import Mat2Z

Coeff = Union[int, Fraction, CycloNum, None]
TAIL_TOL = 1e-9  # the largest tail bound QExpansion.eval accepts


class TruncationError(Exception):
    """Raised when a computation would need coefficients beyond the stored
    precision, or when a numeric tail bound cannot be met."""


@dataclass(frozen=True)
class QExpansion:
    """Finitely many coefficients of g(tau) = sum_l coeffs[l] e[l*tau/denom]."""

    weight: int
    level: int
    disc: int
    denom: int
    coeffs: tuple[Coeff, ...]
    precision: int

    def __post_init__(self):
        if self.denom < 1 or self.level < 1:
            raise ValueError("denom and level must be positive")
        if self.precision != len(self.coeffs):
            raise ValueError("precision must equal the number of stored coefficients")
        for c in self.coeffs:
            if c is not None and not isinstance(c, (int, Fraction, CycloNum)):
                raise ValueError(f"coefficient {c!r} is not an int, Fraction or CycloNum")

    @staticmethod
    def make(weight: int, level: int, disc: int, denom: int,
             coeffs: Sequence[Coeff]) -> "QExpansion":
        return QExpansion(weight, level, disc, denom, tuple(coeffs), len(coeffs))

    def coeff(self, ell: int) -> Coeff:
        """Stored coefficient of e[ell*tau/denom]; None means unspecified."""
        if ell < 0 or ell >= self.precision:
            raise TruncationError(
                f"coefficient {ell} outside stored range [0, {self.precision})"
            )
        return self.coeffs[ell]

    # -- numeric evaluation -------------------------------------------------

    def eval(self, tau: complex) -> complex:
        """sum_l coeffs[l] e[l*tau/denom] over the stored (specified) range.

        The tail beyond the stored precision is bounded assuming polynomial
        coefficient growth |a_l| <= A*(l+1)^weight with A read off the stored
        coefficients; a bound above TAIL_TOL raises TruncationError.
        Unspecified (None) coefficients are skipped.
        """
        q = cmath.exp(2j * cmath.pi * tau / self.denom)
        r = abs(q)
        if r >= 1:
            raise ValueError("tau must be in the upper half-plane")
        total = 0j
        qp = 1 + 0j
        amp = 0.0
        for ell, c in enumerate(self.coeffs):
            if c is not None:
                c = c.embed() if isinstance(c, CycloNum) else complex(c)
                total += c * qp
                amp = max(amp, abs(c) / (ell + 1) ** self.weight)
            qp *= q
        # tail bound: sum_{l >= precision} A (l+1)^weight r^l
        P = self.precision
        bound, term, ell = 0.0, amp * (P + 1) ** self.weight * r**P, P
        while term > 1e-18 * max(bound, 1e-300) and ell < P + 100000:
            bound += term
            ell += 1
            term *= r * ((ell + 1) / ell) ** self.weight
        if bound > TAIL_TOL:
            raise TruncationError(
                f"tail bound {bound:.3g} exceeds {TAIL_TOL:.3g}; "
                f"need more coefficients at Im(tau) = {tau.imag:.4g}"
            )
        return total

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def enc(c):
            if c is None:
                return None
            if isinstance(c, Fraction):
                return str(c) if c.denominator != 1 else c.numerator
            return c

        return {
            "weight": self.weight,
            "level": self.level,
            "disc": self.disc,
            "denom": self.denom,
            "coeffs": [enc(c) for c in self.coeffs],
            "precision": self.precision,
        }

    @staticmethod
    def from_dict(d: dict) -> "QExpansion":
        def dec(c):
            if c is None:
                return None
            if isinstance(c, str):
                return Fraction(c)
            return c

        return QExpansion(
            d["weight"], d["level"], d["disc"], d["denom"],
            tuple(dec(c) for c in d["coeffs"]), d["precision"],
        )


# ---------------------------------------------------------------------------
# the plus space and the Eisenstein series


def is_plus(field: QuadField, g: QExpansion) -> bool:
    """True iff every stored coefficient a_l with a_D(l) = 0 vanishes, decided
    exactly (the coefficients are exact).  Requires denom = 1; unspecified
    coefficients are skipped.

    a_D(l) = 0 means chi_p(-l) = -1 for some prime component p of D, i.e. l
    is not congruent to -D|u|^2 mod D for any class u; such coefficients can
    never arise from a theta decomposition, hence must vanish.
    """
    if g.denom != 1:
        raise ValueError("plus test requires an integral expansion (denom = 1)")
    for ell, c in enumerate(g.coeffs):
        if c is None or a_D(field, ell) != 0:
            continue
        if c != 0:
            return False
    return True


def eisenstein_star(field: QuadField, k: int, upto: int) -> QExpansion:
    """Coefficients a_l = a_D(l) * sum_{d | l} chi(d) d^(k-2) of the weight
    (k-1) Eisenstein series spanning the complement of the cusp forms in the
    plus space, for 1 <= l <= upto with gcd(l, D) = 1.

    Coefficients with gcd(l, D) > 1 (including l = 0) are stored as None
    ("unspecified"): the source formula only covers the coprime range and we
    do not guess the rest.
    """
    if k % 2 != 0 or k <= 2:
        raise ValueError("k must be even and > 2")
    D = field.D
    cs: list[Coeff] = [None] * (upto + 1)
    for ell in range(1, upto + 1):
        if math.gcd(ell, D) != 1:
            continue
        aD = a_D(field, ell)
        if aD == 0:
            cs[ell] = 0
        else:
            cs[ell] = aD * sum(field.chi(d) * d ** (k - 2) for d in divisors(ell))
    return QExpansion.make(k - 1, 1, D, 1, cs)


# ---------------------------------------------------------------------------
# P_m and the slash action


def _check_Pm(P: Mat2Z, m: int, n: int, N: int) -> None:
    M1, M2 = m * m, (n * N) ** 2
    a, b, c, d = P.entries()
    if P.det() != 1:
        raise AssertionError("P_m must have determinant 1")
    if (a % M1, (b + 1) % M1, (c - 1) % M1, d % M1) != (0, 0, 0, 0):
        raise AssertionError("P_m is not congruent to J mod m^2")
    if ((a - 1) % M2, b % M2, c % M2, (d - 1) % M2) != (0, 0, 0, 0):
        raise AssertionError("P_m is not congruent to I mod (nN)^2")


def build_Pm(D: int, m: int, N: int) -> Mat2Z:
    """An SL2(Z) matrix P_m = J mod m^2 and = I mod (nN)^2, where n = D/m.

    Entries are solved by CRT modulo M = m^2 (nN)^2 and the resulting
    unimodular-mod-M matrix is lifted to SL2(Z): the bottom row is pushed to a
    coprime pair, the top row is completed by Bezout and then corrected by the
    one-parameter family (a, b) -> (a + s c, b + s d) to restore the entry
    congruences.  Both congruences are re-verified exactly before returning.
    """
    if m < 1 or D % m != 0:
        raise ValueError("m must be a positive divisor of D")
    n = D // m
    if math.gcd(m, n) != 1:
        raise ValueError("m and D/m must be coprime")
    if N < 1 or math.gcd(N, D) != 1:
        raise ValueError("N must be a positive integer coprime to D")
    M1, M2 = m * m, (n * N) ** 2
    M = M1 * M2
    a0 = crt([(0, M1), (1, M2)])
    b0 = crt([(-1, M1), (0, M2)])
    c0 = crt([(1, M1), (0, M2)])
    d0 = crt([(0, M1), (1, M2)])
    if m == 1:
        P = Mat2Z(1, 0, 0, 1)
        _check_Pm(P, m, n, N)
        return P
    # bottom row: c0 >= 1 here since c0 = 1 mod m^2 with m > 1
    c, d = c0, d0
    while math.gcd(c, d) != 1:
        d += M
    # top row: any Bezout completion, then shift by s*(c, d) to match (a0, b0)
    g, x, y = bezout(d, -c)
    a1, b1 = x, y  # a1*d - b1*c = 1
    _, xc, yd = bezout(c, d)  # xc*c + yd*d = 1
    s = (xc * (a0 - a1) + yd * (b0 - b1)) % M
    a, b = a1 + s * c, b1 + s * d
    P = Mat2Z(a, b, c, d)
    _check_Pm(P, m, n, N)
    return P


def slash_eval(g: QExpansion, gamma: Mat2Z, tau: complex) -> complex:
    """(g |_{weight} gamma)(tau) = (c*tau+d)^(-weight) g(gamma*tau) for
    integral gamma with positive determinant (no determinant normalization)."""
    if gamma.det() <= 0:
        raise ValueError("gamma must have positive determinant")
    a, b, c, d = gamma.entries()
    j = c * tau + d
    gtau = (a * tau + b) / j
    return j ** (-g.weight) * g.eval(gtau)

