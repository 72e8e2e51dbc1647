import itertools
import math
import random

import pytest
from sympy import primerange

import tests.test_acceptance as acceptance
from hermlift import ikeda
from hermlift.cyclotomic import CycloNum
from hermlift.ikeda import (EigenData, chi_under, coeff, fQ_coeff,
                            fstar_coeff, fstar_plus_check, rho_coeff,
                            synthetic_eigendata, validate_eigendata)
from hermlift.quadfield import QuadField
from tests.conftest import ALL_D

PRIMES = list(primerange(2, 320))


def _ed(D, seed=0, weight=7):
    return synthetic_eigendata(QuadField(D), weight, 1, PRIMES,
                               random.Random(seed))


def test_hecke_recursion_multiplicativity():
    ed = _ed(3)
    # a(mn) = a(m) a(n) for coprime m, n
    for m, n in [(2, 5), (4, 25), (7, 11), (8, 5)]:
        assert (coeff(ed, m * n) - coeff(ed, m) * coeff(ed, n)).is_zero()
    # the recursion itself at a good prime p = 2 (chi_3(2) = -1)
    p, w = 2, ed.weight
    chi_pw = ed.field.chi(p) * p ** (w - 1)
    for e in range(1, 5):
        lhs = coeff(ed, p ** (e + 1))
        rhs = ed.a(p) * coeff(ed, p**e) - chi_pw * coeff(ed, p ** (e - 1))
        assert (lhs - rhs).is_zero()


def test_bad_prime_powers_multiply():
    ed = _ed(3)
    q = 3
    for e in range(1, 4):
        want = coeff(ed, q) * coeff(ed, q ** (e - 1))
        assert (coeff(ed, q**e) - want).is_zero()


def test_validate_eigendata_rejects_bad():
    f = QuadField(3)
    # a(2) real nonzero violates conj(a(p)) = chi(p) a(p) when chi(2) = -1
    bad = EigenData(f, 7, 1, {2: CycloNum.from_rational(3)})
    with pytest.raises(ValueError):
        validate_eigendata(bad)
    # wrong magnitude at the ramified prime
    bad2 = EigenData(f, 7, 1, {3: CycloNum.from_rational(5)})
    with pytest.raises(ValueError):
        validate_eigendata(bad2)


def test_missing_prime_is_an_error():
    ed = EigenData(QuadField(3), 7, 1, {2: CycloNum.i() * 2})
    with pytest.raises(KeyError):
        coeff(ed, 5)


def test_chi_under_is_multiplicative_enough():
    # chi_under_q(M M') = chi_under_q(M) chi_under_q(M') for all M, M'
    for D in (15, 20, 24):
        f = QuadField(D)
        from hermlift.arith import prime_divisors

        for q in prime_divisors(D):
            for M in range(1, 40):
                for Mp in range(1, 40):
                    assert chi_under(f, q, M * Mp) == chi_under(f, q, M) * chi_under(f, q, Mp)


@pytest.mark.parametrize("D", ALL_D)
def test_subset_sum_equals_product_form(D):
    # fstar_coeff raises internally if the two evaluations disagree
    ed = _ed(D, seed=D)
    for ell in (1, 2, 5):
        if ell % 2 == 0 and D % 2 == 0:
            continue
        if ell == 5 and D % 5 == 0:
            continue
        for M in range(1, 160):
            fstar_coeff(ed, ell, M)


@pytest.mark.parametrize("D", ALL_D)
def test_fstar_is_the_signed_sum_of_its_twists(D):
    # fstar_coeff groups the subsets Q by M_Q; the plain sum over every Q of
    # chi_Q(-ell) a_{f_Q}(M) must give the same value
    ed = _ed(D, seed=D)
    primes = ed.field.primes
    subsets = [Q for r in range(len(primes) + 1) for Q in itertools.combinations(primes, r)]
    for ell in (1, next(x for x in (2, 3, 5, 7) if math.gcd(x, D) == 1)):
        for M in range(1, 201):
            want = CycloNum.zero()
            for Q in subsets:
                want = want + math.prod(ed.field.chi_p(q, -ell) for q in Q) * fQ_coeff(ed, Q, M)
            assert (fstar_coeff(ed, ell, M) - want).is_zero(), (D, ell, M)


@pytest.mark.parametrize("D", ALL_D)
def test_fstar_plus_membership(D):
    for seed in range(3):
        ed = _ed(D, seed=seed)
        assert fstar_plus_check(ed, 1, 120)


@pytest.mark.parametrize("D", (3, 7, 11, 19, 23))
def test_prime_level_full_twist_is_conjugation(D):
    # for prime D the twist by the full set {D} conjugates the coefficients,
    # so f* = f - f^rho up to the subset signs
    ed = _ed(D, seed=2 * D)
    for M in range(1, 200):
        lhs = fQ_coeff(ed, {D}, M)
        assert (lhs - rho_coeff(ed, M)).is_zero(), (D, M)


def test_averaging_over_subsets():
    # averaging two ell-classes cancels the subsets where the signs flip:
    # chi_3(-1) = -1, chi_5(-1) = +1, so picking ell with chi_3(-ell) = +1
    # and chi_5(-ell) = -1 kills the {3} and {5} twists and leaves
    # f*[1] + f*[ell] = 2 (f_emptyset - f_{3,5})
    f = QuadField(15)
    ed = _ed(15, seed=9)
    ell = next(x for x in range(1, 100)
               if f.chi_p(3, -x) == 1 and f.chi_p(5, -x) == -1)
    for M in range(1, 80):
        s = fstar_coeff(ed, 1, M) + fstar_coeff(ed, ell, M)
        want = 2 * (fQ_coeff(ed, (), M) - fQ_coeff(ed, {3, 5}, M))
        assert (s - want).is_zero(), M


def test_fstar_requires_coprime_ell():
    ed = _ed(3)
    with pytest.raises(ValueError):
        fstar_coeff(ed, 3, 10)


@pytest.mark.parametrize("D", ALL_D)
def test_c09_locates_a_negated_chi_under(monkeypatch, D):
    # with chi_under_q negated, c09's check raises at its first M.  At
    # M = ell = 1 the subset sum becomes prod_q (1 - chi_q(-1)) against the
    # closed form prod_q (1 + chi_q(-1)); both vanish when D has two prime
    # components of opposite parity, so D = 15, 20, 24 fail at a later M
    real = ikeda.chi_under
    monkeypatch.setattr(ikeda, "chi_under", lambda field, q, M: -real(field, q, M))
    M = {15: 5, 20: 2, 24: 3}.get(D, 1)
    with pytest.raises(AssertionError, match=f"disagree at M={M}, ell=1$"):
        acceptance.check_twist_paths(D)
