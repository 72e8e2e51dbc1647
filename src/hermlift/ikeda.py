"""Coefficient combinatorics of the map onto the plus space.

Works with synthetic Hecke eigendata: a multiplicative coefficient function
a(M) generated from prime values a(p) by the standard recursion

    a(p^{e+1}) = a(p) a(p^e) - chi(p) p^{w-1} a(p^{e-1})   (p prime to level)
    a(p^e)     = a(p)^e                                     (p | level)

with nebentypus chi = chi_K and level D*m.  For every subset Q of the prime
divisors of D there is a twisted form f_Q with

    a_{f_Q}(M) = a_f(M' M'_Q) * conj(a_f(M_Q)) * prod_{q in Q} chi_under_q(M)

(M' = part of M prime to D, M_Q / M'_Q = parts supported on Q / on D\\Q), and

    f*[l] = sum_{Q} chi_Q(-l) f_Q,    chi_Q = prod_{q in Q} chi_q.

The local factor chi_under_q(M) of the idele character is realized as
chi_q(M / M_q) * eta_q^{val_q(M)} with eta_q = prod_{p | D, p != q} chi_p(q);
this operational definition is fixed by requiring the subset-sum and the
product closed form of a_{f*[l]} to agree (cross-checked on every call).
The subset sum groups the subsets Q by M_Q: each group shares one product
a_f(M/M_Q) conj(a_f(M_Q)) (a_f(M) itself for M_Q = 1), weighted by the
integer sum of its signs, and the weights are expanded one prime of D at a
time.

a_f(M) is memoized per M in the eigendata: a(p^e) is one step of the
recursion from the memoized a(p^{e-1}), a(p^{e-2}), and a(M) for M with
more than one prime is the one product a(p^e) a(M/p^e), p^e the power of
M's least prime.  Both paths of f*[l] read these values, so the tests check
them against the recursion run afresh per prime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .arith import factorize, valuation
from .cyclotomic import CycloNum, csum
from .quadfield import QuadField, a_D, chi_component


@dataclass(frozen=True)
class EigenData:
    """Synthetic Hecke eigendata: weight w, level D*m (gcd(m, D) = 1),
    character chi_K, and prime coefficients ap (exact CycloNum values)."""

    field: QuadField
    weight: int
    level_m: int
    ap: dict
    _memo: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if math.gcd(self.level_m, self.field.D) != 1:
            raise ValueError("m must be coprime to D")

    @property
    def level(self) -> int:
        return self.field.D * self.level_m

    def a(self, p: int) -> CycloNum:
        if p not in self.ap:
            raise KeyError(f"no eigenvalue data for prime {p}")
        return _cyc(self.ap[p])


def _cyc(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.from_rational(x)


def coeff(ed: EigenData, M: int) -> CycloNum:
    """a(M) by multiplicativity and the Hecke recursion, memoized per M: with
    p^e the prime power of M's least prime, a(M) = a(p^e) a(M/p^e) is one
    product, and a(p^e) one step of the recursion from a(p^{e-1}), a(p^{e-2})."""
    memo = ed._memo
    if M in memo:
        return memo[M]
    if M < 1:
        raise ValueError("M must be positive")
    if M == 1:
        out = CycloNum.from_rational(1)
    else:
        p, e = factorize(M)[0]
        q = p**e
        out = _prime_power(ed, p, e) if q == M else coeff(ed, q) * coeff(ed, M // q)
    memo[M] = out
    return out


def _prime_power(ed: EigenData, p: int, e: int) -> CycloNum:
    """a(p^e) for e >= 1 from the memoized lower powers."""
    apv = ed.a(p)
    if e == 1:
        return apv
    if ed.level % p == 0:
        return coeff(ed, p ** (e - 1)) * apv
    chi_pw = ed.field.chi(p) * p ** (ed.weight - 1)
    return apv * coeff(ed, p ** (e - 1)) - chi_pw * coeff(ed, p ** (e - 2))


def validate_eigendata(ed: EigenData) -> None:
    """conj(a(p)) = chi(p) a(p) for p prime to the level, and
    a(q) conj(a(q)) = q^{w-1} for q | D with a(q) != 0."""
    for p, v in ed.ap.items():
        v = _cyc(v)
        if ed.level % p != 0:
            if not (v.conjugate() - ed.field.chi(p) * v).is_zero():
                raise ValueError(f"conj(a({p})) != chi({p}) a({p})")
        elif ed.field.D % p == 0 and not v.is_zero():
            if not (v * v.conjugate() - p ** (ed.weight - 1)).is_zero():
                raise ValueError(f"|a({p})|^2 != {p}^(w-1)")


def synthetic_eigendata(field: QuadField, weight: int, level_m: int,
                        primes: list[int], rng: random.Random) -> EigenData:
    """Random eigendata obeying the structural constraints: a(p) rational
    (chi(p) = 1), i * rational (chi(p) = -1), a(q) = i^s q^{(w-1)/2} for
    q | D (w odd), a(p) rational for p | m."""
    if weight % 2 == 0:
        raise ValueError("weight must be odd (it is k - 1 for even k)")
    ap = {}
    half = (weight - 1) // 2
    for p in primes:
        if field.D % p == 0:
            unit = [_cyc(1), CycloNum.i(), _cyc(-1), -CycloNum.i()][rng.randrange(4)]
            ap[p] = unit * p**half
        elif level_m % p == 0:
            ap[p] = CycloNum.from_rational(rng.randrange(-p, p + 1))
        else:
            c = Fraction(rng.randrange(-2 * p, 2 * p + 1))
            ap[p] = _cyc(c) if field.chi(p) == 1 else CycloNum.i() * c
    ed = EigenData(field, weight, level_m, ap)
    validate_eigendata(ed)
    return ed


# ---------------------------------------------------------------------------
# the twists f_Q and the star map


@lru_cache(maxsize=256)
def _eta(field: QuadField, q: int) -> int:
    """eta_q = prod_{p | D, p != q} chi_p(q) = psi_{D/q^v}(q), with q^v || D."""
    return chi_component(field, field.D // q ** valuation(field.D, q))(q)


def chi_under(field: QuadField, q: int, M: int) -> int:
    """The local factor chi_under_q(M) = chi_q(M / M_q) * eta_q^{val_q(M)}."""
    e = valuation(M, q) if M else 0
    return field.chi_p(q, M // q**e) * _eta(field, q) ** e


def fQ_coeff(ed: EigenData, Q, M: int) -> CycloNum:
    """a_{f_Q}(M) = a_f(M' M'_Q) conj(a_f(M_Q)) prod_{q in Q} chi_under_q(M)
    (M' = part of M prime to D, M_Q / M'_Q = parts supported on Q / on D\\Q)."""
    Q = frozenset(Q)
    if not Q <= set(ed.field.primes):
        raise ValueError("Q must consist of prime divisors of D")
    MQ = math.prod(p**e for p, e in factorize(M) if p in Q)
    out = coeff(ed, M // MQ) * coeff(ed, MQ).conjugate()
    for q in Q:
        out = out * chi_under(ed.field, q, M)
    return out


def fstar_coeff(ed: EigenData, ell: int, M: int) -> CycloNum:
    """a_{f*[ell]}(M) = sum_{Q} chi_Q(-ell) a_{f_Q}(M), cross-checked on every
    call against the closed form

      a_f(M') a_D(ell M) prod_{q | gcd(D,M)}
          (a_f(M_q) + chi_q(-1) chi_q(ell) conj(a_f(M_q)) chi_under_q(M)).

    The subsets Q with the same M_Q share a_f(M/M_Q) conj(a_f(M_Q)), which
    takes the integer weight sum chi_Q(-ell) prod_{q in Q} chi_under_q(M)."""
    field = ed.field
    if math.gcd(ell, field.D) != 1:
        raise ValueError("ell must be coprime to D")
    fac = dict(factorize(M))
    under = {q: chi_under(field, q, M) for q in field.primes}
    # M_Q -> its integer weight, expanded one prime q of D at a time: a subset
    # omits q, or takes q^val_q(M) into M_Q with the sign chi_q(-ell) chi_under_q(M)
    weight = {1: 1}
    for q in field.primes:
        Mq, sign = q ** fac.get(q, 0), field.chi_p(q, -ell) * under[q]
        grown = dict(weight)
        for MQ, w in weight.items():
            grown[MQ * Mq] = grown.get(MQ * Mq, 0) + sign * w
        weight = grown
    total = csum(w * (coeff(ed, M) if MQ == 1 else coeff(ed, M // MQ) * coeff(ed, MQ).conjugate())
                 for MQ, w in weight.items() if w)
    # closed form
    onD = [(q, q**e) for q, e in fac.items() if field.D % q == 0]
    prod = coeff(ed, M // math.prod(Mq for _, Mq in onD)) * a_D(field, ell * M)
    for q, Mq in onD:
        aq = coeff(ed, Mq)
        prod = prod * (aq + field.chi_p(q, -1) * field.chi_p(q, ell) * under[q] * aq.conjugate())
    if not (total - prod).is_zero():
        raise AssertionError(f"subset sum and closed form disagree at M={M}, ell={ell}")
    return total


def fstar_plus_check(ed: EigenData, ell: int, bound: int) -> bool:
    """Plus membership of f*[ell]|sigma_ell up to the given coefficient bound:
    its n-th coefficient is a_{f*[ell]}(n/ell) when ell | n (else 0) and must
    vanish whenever a_D(n) = 0."""
    validate_eigendata(ed)
    if math.gcd(ed.field.D, ell) != 1:
        raise ValueError("ell must be coprime to D")
    for n in range(1, bound + 1):
        if a_D(ed.field, n) != 0 or n % ell != 0:
            continue
        if not fstar_coeff(ed, ell, n // ell).is_zero():
            return False
    return True


def rho_coeff(ed: EigenData, M: int) -> CycloNum:
    """a_{f^rho}(M) = conj(a_f(M)) (the form with conjugated coefficients)."""
    return coeff(ed, M).conjugate()
