"""The coefficient pipeline from plus forms to Hermitian Maass forms.

Chain: plus form g -> theta components g_u -> special-Jacobi coefficient
function alpha*(l) -> Maass Fourier coefficients

    c_F(T) = sum_{d | eps(T), gcd(d, N) = 1} d^(k-1) alpha_F(D det(T) / d^2)

where T = [[l, t], [conj(t), m]] with t = (i/sqrt(D))(t1 + t2*omega) and
eps(T) = gcd(l, m, t1, t2).  The scalar -i*sqrt(D) is carried exactly as
-G(chi_K) in the cyclotomic ring.  Also houses the beta-function builder
beta(u, v) = sum_{d | u, (d,N)=1} d^(k-1) alpha_F(v (u/d)^2) whose identities
characterize the Maass space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from .arith import divisors
from .charsums import i_sqrtD
from .cyclotomic import CycloNum
from .hecke import BetaTable, TableRangeError
from .plusform import QExpansion
from .quadfield import AlgInt, QuadField, a_D, classes


@dataclass(frozen=True)
class AlphaSeries:
    """A coefficient function l -> value on 0 <= l <= bound.

    role is one of "plus" (a_l(g)), "alpha_star" (special-Jacobi alpha*),
    "maass" (alpha_F); for the lift the last two coincide.  Indices in
    `unspecified` carry no value and accessing them is an error; access
    beyond bound raises TableRangeError.  An integral Fraction value comes
    back as its int numerator, so beta sums over an integral table stay in
    int arithmetic; the table itself is not converted.
    """

    table: dict
    role: str
    bound: int
    unspecified: frozenset = dc_field(default_factory=frozenset)

    def value(self, ell: int):
        if ell < 0 or ell > self.bound:
            raise TableRangeError(f"index {ell} outside [0, {self.bound}]")
        if ell in self.unspecified:
            raise ValueError(f"coefficient {ell} is unspecified")
        v = self.table.get(ell, 0)
        return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def theta_decompose(field: QuadField, N: int, g: QExpansion) -> dict:
    """The D component expansions g_u (denom = D) of the special Jacobi form
    attached to a plus form g:

        g_u = chi(N) * (-i*sqrt(D) / a_D(-D|u|^2))
                * sum_{l = -D|u|^2 mod D} a_l(g) e[l tau / D].

    g_u depends on u only through D|u|^2 mod D."""
    from .plusform import is_plus

    D = field.D
    if math.gcd(D, N) != 1:
        raise ValueError("N must be coprime to D")
    if not is_plus(field, g):
        raise ValueError("theta decomposition requires a plus form")
    chiN = field.chi(N)
    base = i_sqrtD(D)
    out = {}
    by_res: dict[int, QExpansion] = {}
    for u in classes(field):
        res = (-u.dnorm) % D
        if res not in by_res:
            scal = base * Fraction(-chiN, u.mult)  # a_u = a_D(-D|u|^2) = mult
            cs = []
            for ell, c in enumerate(g.coeffs):
                if ell % D != res:
                    cs.append(0)
                elif c is None:
                    cs.append(None)
                else:
                    cs.append(scal * c)
            by_res[res] = QExpansion.make(g.weight, g.level, D, D, cs)
        out[u] = by_res[res]
    return out


def special_jacobi_alpha(field: QuadField, N: int, g: QExpansion) -> AlphaSeries:
    """alpha*(l) = -i*sqrt(D) * a_l(g) / (a_D(l) * chi(N)); zero where
    a_D(l) = 0 (forced, since a_l(g) = 0 there for a plus form)."""
    from .plusform import is_plus

    if math.gcd(field.D, N) != 1:
        raise ValueError("N must be coprime to D")
    if not is_plus(field, g):
        raise ValueError("alpha* requires a plus form")
    base = i_sqrtD(field.D) * -field.chi(N)  # chi(N) = 1/chi(N)
    table = {}
    unspec = set()
    for ell, c in enumerate(g.coeffs):
        aD = a_D(field, ell)
        if aD == 0:
            continue  # value 0
        if c is None:
            unspec.add(ell)
            continue
        v = base * Fraction(1, aD) * c
        if v.coeffs:
            table[ell] = v
    return AlphaSeries(table, "alpha_star", g.precision - 1, frozenset(unspec))


def plus_coeff_from_alpha(field: QuadField, N: int, alpha: AlphaSeries, ell: int):
    """The inverse direction a_l(g) = i*(a_D(l)/sqrt(D))*chi(N)*alpha*(l);
    i/sqrt(D) = G(chi_K)/D exactly."""
    aD = a_D(field, ell)
    if aD == 0:
        return CycloNum.zero()
    return i_sqrtD(field.D) * Fraction(aD * field.chi(N), field.D) * alpha.value(ell)


@dataclass(frozen=True)
class HermitianCoeffKey:
    """T = [[ell, t], [conj(t), m]] with t = (i/sqrt(D))(t1 + t2*omega)."""

    field: QuadField
    ell: int
    m: int
    t1: int
    t2: int

    def __post_init__(self):
        if self.ell < 0 or self.m < 0:
            raise ValueError("T >= 0 requires non-negative diagonal")
        if self.ddet < 0:
            raise ValueError("T >= 0 requires non-negative determinant")

    @cached_property
    def ddet(self) -> int:
        """D * det(T) = D*ell*m - N(t1 + t2*omega), an integer."""
        t = AlgInt(self.field, self.t1, self.t2).norm()
        return self.field.D * self.ell * self.m - t


def epsilon_T(key: HermitianCoeffKey) -> int:
    """eps(T) = gcd(ell, m, t1, t2), the content of T."""
    g = math.gcd(math.gcd(key.ell, key.m), math.gcd(key.t1, key.t2))
    if g == 0:
        raise ValueError("eps(T) undefined for T = 0")
    return g


def maass_coeff(field: QuadField, N: int, k: int, alpha: AlphaSeries,
                key: HermitianCoeffKey):
    """c_F(T) = sum_{d | eps(T), gcd(d,N)=1} d^(k-1) alpha_F(D det T / d^2)
    = beta(eps(T), D det T / eps(T)^2)."""
    eps = epsilon_T(key)
    return beta_from_alpha(alpha, k, N).value(eps, key.ddet // (eps * eps))


def beta_from_alpha(alpha: AlphaSeries, k: int, N: int) -> BetaTable:
    """beta(u, v) = sum_{d | u, gcd(d,N)=1} d^(k-1) alpha(v (u/d)^2); the
    pairs (d^(k-1), (u/d)^2) are built once per u, and alpha's table, bound
    and unspecified indices are read as AlphaSeries.value reads them: the
    largest index v u^2 (d = 1) in range, no index unspecified, an integral
    Fraction as its int numerator."""
    terms: dict[int, list[tuple[int, int]]] = {}
    get, bound, unspecified = alpha.table.get, alpha.bound, alpha.unspecified

    def fn(u: int, v: int):
        ts = terms.get(u)
        if ts is None:
            ts = terms[u] = [(d ** (k - 1), (u // d) ** 2) for d in divisors(u) if math.gcd(d, N) == 1]
        if v * u * u > bound:
            raise TableRangeError(f"index {v * u * u} outside [0, {bound}]")
        if unspecified:
            for _, s in ts:
                if v * s in unspecified:
                    raise ValueError(f"coefficient {v * s} is unspecified")
        out = 0
        for w, s in ts:
            x = get(v * s, 0)
            if type(x) is Fraction and x.denominator == 1:
                x = x.numerator
            out += w * x
        return out

    return BetaTable(k, N, fn)
