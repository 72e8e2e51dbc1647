"""q-expansions with the quadratic character, the plus-space test, and the
operators U_m, Q_m, V_m on elliptic modular forms.

A QExpansion stores finitely many Fourier coefficients of a weight-(k-1)
form g(tau) = sum_l a_l e[l*tau/denom].  Access beyond the stored range is an
explicit TruncationError, never a silent zero.  Coefficients may also be None
("unspecified"): such slots are skipped by the plus test and treated as absent
by the numeric evaluator (documented truncation caveat of the smoke tests).

P_m is an SL2(Z) matrix congruent to J mod m^2 and to I mod (nN)^2, built by
CRT on the entries followed by a strong-approximation lift; the congruences
are re-verified exactly on every call.  Q_m = P_m * diag(m, 1), and
g|V_m = g|U_m|Q_m with the unnormalized slash (c*tau+d)^(-weight) g(gamma*tau)
(no determinant factor).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .arith import bezout, crt, divisors
from .quadfield import QuadField, a_D
from .thetamat import Mat2Z

Coeff = Union[int, Fraction, float, complex, None]
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

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if (self.weight, self.level, self.disc, self.denom) != (
            other.weight, other.level, other.disc, other.denom
        ):
            raise ValueError("incompatible expansions")
        n = min(self.precision, other.precision)
        cs = tuple(
            None if (a is None or b is None) else a + b
            for a, b in zip(self.coeffs[:n], other.coeffs[:n])
        )
        return QExpansion(self.weight, self.level, self.disc, self.denom, cs, n)

    def __mul__(self, scalar) -> "QExpansion":
        cs = tuple(None if c is None else c * scalar for c in self.coeffs)
        return QExpansion(self.weight, self.level, self.disc, self.denom, cs,
                          self.precision)

    __rmul__ = __mul__

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
                total += complex(c) * qp
                amp = max(amp, abs(complex(c)) / (ell + 1) ** self.weight)
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
            if isinstance(c, complex):
                return {"re": c.real, "im": c.imag}
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
            if isinstance(c, dict):
                return complex(c["re"], c["im"])
            return c

        return QExpansion(
            d["weight"], d["level"], d["disc"], d["denom"],
            tuple(dec(c) for c in d["coeffs"]), d["precision"],
        )


# ---------------------------------------------------------------------------
# the plus space and the Eisenstein series


def is_plus(field: QuadField, g: QExpansion) -> bool:
    """True iff every stored coefficient a_l with a_D(l) = 0 vanishes:
    exactly for int, Fraction and CycloNum coefficients, within 1e-12 for
    the float and complex ones `QExpansion.from_dict` reads.  Requires
    denom = 1; unspecified coefficients are skipped.

    a_D(l) = 0 means chi_p(-l) = -1 for some prime component p of D, i.e. l
    is not congruent to -D|u|^2 mod D for any class u; such coefficients can
    never arise from a theta decomposition, hence must vanish.
    """
    if g.denom != 1:
        raise ValueError("plus test requires an integral expansion (denom = 1)")
    for ell, c in enumerate(g.coeffs):
        if c is None or a_D(field, ell) != 0:
            continue
        if abs(c) > 1e-12 if isinstance(c, (float, complex)) else c != 0:
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
# P_m, Q_m, U_m, V_m


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


def apply_Um(g: QExpansion, m: int, tau: complex) -> complex:
    """(g|U_m)(tau) = sum_{j=0}^{m-1} (g | [[1,j],[0,m]])(tau)."""
    return sum(slash_eval(g, Mat2Z(1, j, 0, m), tau) for j in range(m))


def apply_Vm(g: QExpansion, field: QuadField, m: int, N: int, tau: complex) -> complex:
    """(g|V_m)(tau) with V_m = U_m followed by Q_m = P_m * diag(m, 1).

    Since the unnormalized slash is a right action on GL2+(Q), the double
    slash collapses to a single m-term sum over [[1,j],[0,m]] * Q_m.
    """
    pa, pb, pc, pd = build_Pm(field.D, m, N).entries()
    Qm = Mat2Z(pa * m, pb, pc * m, pd)
    return sum(slash_eval(g, Mat2Z(1, j, 0, m) * Qm, tau) for j in range(m))
