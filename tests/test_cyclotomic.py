import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlift.cyclotomic import (CycloNum, csum, cyclotomic_polynomial, esum,
                                 root_of_unity)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
roots = st.builds(root_of_unity,
                  st.fractions(min_value=0, max_value=1, max_denominator=24))


def test_cyclotomic_polynomial_small():
    # degree phi(M), matches the classical polynomials
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_root_of_unity_embeds():
    for num, den in [(1, 3), (1, 4), (5, 8), (7, 12), (3, 5)]:
        z = root_of_unity(Fraction(num, den)).embed()
        want = cmath.exp(2j * cmath.pi * num / den)
        assert abs(z - want) < 1e-12


@given(roots, roots)
@settings(max_examples=60)
def test_mul_matches_embedding(a, b):
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-10


@given(roots, roots, fracs)
@settings(max_examples=60)
def test_ring_axioms_spotwise(a, b, q):
    assert ((a + b) * q - (a * q + b * q)).is_zero()
    assert (a * b - b * a).is_zero()
    assert (a - a).is_zero()


def test_is_zero_nontrivial_relation():
    # 1 + z + z^2 = 0 for z a primitive cube root
    z = root_of_unity(Fraction(1, 3))
    assert (1 + z + z * z).is_zero()
    # sum of all p-th roots vanishes
    for p in (5, 7, 11):
        s = CycloNum.zero()
        for j in range(p):
            s = s + root_of_unity(Fraction(j, p))
        assert s.is_zero()
    assert not (1 + root_of_unity(Fraction(1, 5))).is_zero()


@given(roots)
def test_conjugate_embeds(a):
    assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-10


def test_division():
    # division is defined by rationals and by single roots of unity
    a = 1 + root_of_unity(Fraction(1, 3))
    assert ((a / 2) * 2 - a).is_zero()
    z = root_of_unity(Fraction(5, 7)) * Fraction(3, 2)
    assert ((a / z) * z - a).is_zero()
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(TypeError):
        a / (1 + root_of_unity(Fraction(1, 5)))


def test_i_unit():
    i = CycloNum.i()
    assert (i * i + 1).is_zero()
    assert abs(i.embed() - 1j) < 1e-14


# -- the representation: integer numerators over one common denominator ------

orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15])
cyclos = st.builds(
    CycloNum, orders,
    st.dictionaries(st.integers(min_value=-40, max_value=40), fracs, max_size=5))
nonzero_fracs = fracs.filter(bool)
monomials = st.builds(lambda q, z: z * q, nonzero_fracs, roots)
summands = st.one_of(cyclos, roots, fracs, st.integers(-3, 3), st.just(CycloNum.zero()))


def assert_canonical(x):
    assert type(x) is CycloNum
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c != 0 for c in x.coeffs.values())
    assert all(0 <= k < x.order for k in x.coeffs)
    assert math.gcd(x.den, *x.coeffs.values()) == 1
    if not x.coeffs:
        assert x.den == 1


def test_constructor_takes_a_common_denominator():
    x = CycloNum(6, {1: Fraction(1, 2), 7: Fraction(1, 3), 2: Fraction(-3, 4)})
    assert x.coeffs == {1: 10, 2: -9} and x.den == 12
    assert_canonical(x)
    assert_canonical(CycloNum(4, {0: Fraction(1, 2), 4: Fraction(-1, 2)}))


@given(cyclos, cyclos, fracs, nonzero_fracs, monomials)
@settings(max_examples=150)
def test_every_operation_keeps_the_invariant(a, b, q, r, z):
    for x in (a, b, a + b, a - b, a * b, a * q, q * a, a + q, q - a, -a,
              a / r, a / z, a.conjugate(), csum([a, b, q])):
        assert_canonical(x)


@given(cyclos, cyclos, fracs)
@settings(max_examples=100)
def test_operations_match_the_embedding(a, b, q):
    ea, eb = a.embed(), b.embed()
    assert abs((a + b).embed() - (ea + eb)) < 1e-9
    assert abs((a * b).embed() - ea * eb) < 1e-9
    assert abs((a * q).embed() - ea * float(q)) < 1e-9
    assert abs(a.conjugate().embed() - ea.conjugate()) < 1e-9


@given(st.lists(summands, max_size=8))
@settings(max_examples=150)
def test_csum_equals_the_fold_of_add(xs):
    fold = CycloNum.zero()
    for x in xs:
        fold = fold + x
    s = csum(xs)
    assert_canonical(s)
    assert (s.order, s.coeffs, s.den) == (fold.order, fold.coeffs, fold.den)
    assert (csum(iter(xs)) - fold).is_zero()


def test_csum_edge_cases():
    assert (csum([]).order, csum([]).coeffs, csum([]).den) == (1, {}, 1)
    z = csum([CycloNum.zero(), root_of_unity(Fraction(1, 5)) - root_of_unity(Fraction(1, 5)), 0])
    assert z.is_zero() and z.order == 5 and z.den == 1
    # mixed orders and denominators, with full cancellation
    x = csum([root_of_unity(Fraction(1, 3)) * Fraction(1, 2), Fraction(1, 6),
              root_of_unity(Fraction(1, 4)), -root_of_unity(Fraction(2, 6)) * Fraction(1, 2),
              -root_of_unity(Fraction(3, 12)), Fraction(-1, 6)])
    assert x.order == 12 and x.coeffs == {} and x.den == 1


def rep(x):
    return x.order, x.coeffs, x.den


@given(cyclos, st.integers(-50, 50).filter(bool), nonzero_fracs)
@settings(max_examples=150)
def test_rational_factor_scales_the_numerators(x, n, q):
    # the scalar path gives the representation of the product with the
    # rational as a CycloNum of order 1
    for r in (n, q, Fraction(n), -q):
        want = rep(x * CycloNum.from_rational(r))
        assert rep(x * r) == rep(r * x) == want
    assert (x * 0).is_zero() and (x * Fraction(0)).is_zero()


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 15, 20, 24]),
       st.lists(st.tuples(st.integers(-60, 60), st.integers(-4, 4).filter(bool)), max_size=12))
@settings(max_examples=200)
def test_esum_equals_the_csum_of_its_monomials(M, terms):
    s = esum(M, terms)
    assert_canonical(s)
    assert rep(s) == rep(csum(w * root_of_unity(Fraction(k, M)) for k, w in terms))
    # a denominator divides the sum, in lowest terms
    scaled = esum(M, terms, 6)
    assert_canonical(scaled)
    assert rep(scaled) == rep(s * Fraction(1, 6))


def test_esum_edge_cases():
    assert rep(esum(7, [])) == rep(csum([])) == (1, {}, 1)
    # full cancellation keeps the order of the exponents seen, as csum does
    terms = [(3, 2), (6, 1), (15, -2), (-6, -1), (9, 5), (-3, -5)]
    want = csum(w * root_of_unity(Fraction(k, 12)) for k, w in terms)
    assert rep(esum(12, terms)) == rep(want) == (4, {}, 1)
    assert rep(esum(5, [(0, 3), (5, -1)])) == (1, {0: 2}, 1)
