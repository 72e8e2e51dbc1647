import math

import pytest
import sympy
from hypothesis import given, strategies as st
from sympy.functions.combinatorial.numbers import jacobi_symbol

from hermlift.arith import (bezout, component, crt, divisors, factorize,
                            inverse_mod, is_prime, is_squarefree, kronecker,
                            prime_divisors, valuation)
from hermlift.quadfield import QuadField
from hermlift.residues import ResidueRing
from hermlift.thetamat import theta_order


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_against_sympy(n):
    assert factorize(n) == sorted(sympy.factorint(n).items())


@given(st.integers(min_value=1, max_value=10**5))
def test_divisors_against_sympy(n):
    assert divisors(n) == sympy.divisors(n)


# the first three primes ResidueRing(L, D) takes, by discriminant D, for
# L = theta_order(D); verify_criterion's certificates list them
RING_PRIMES = {
    3: [1753413037, 1753412989, 1753412953], 4: [1518500033, 1518499849, 1518499841],
    7: [1147877683, 1147877543, 1147877501], 8: [1073741441, 1073741329, 1073740609],
    11: [915689699, 915689611, 915689347], 15: [784149781, 784149031, 784148941],
    19: [696735587, 696735359, 696734789], 20: [679093721, 679093241, 679093201],
    23: [633257299, 633256471, 633256241], 24: [619925041, 619924321, 619924177],
}


def _ring_candidates(D):
    """Every k L + 1 that ResidueRing(L, D) tests down to its third prime."""
    L = theta_order(QuadField(D))
    top = math.isqrt((2**63 - 1) // D) // L * L + 1
    return range(top, RING_PRIMES[D][-1] - 1, -L)


@given(st.integers(min_value=2, max_value=10**6)
       | st.sampled_from([n for D in RING_PRIMES for n in _ring_candidates(D)]))
def test_is_prime_against_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("D", sorted(RING_PRIMES))
def test_ring_primes_are_the_largest_below_the_guard(D):
    L = theta_order(QuadField(D))
    rings = [ResidueRing(L, D)]
    for _ in range(2):
        rings.append(ResidueRing(L, D, below=rings[-1].p))
    assert [r.p for r in rings] == RING_PRIMES[D]
    assert [n for n in _ring_candidates(D) if sympy.isprime(n)] == RING_PRIMES[D]
    assert all(is_prime(n) == sympy.isprime(n) for n in _ring_candidates(D))


def test_is_prime_refuses_inputs_beyond_its_bases():
    # 3825123056546413051 is a strong pseudoprime to every base up to 31,
    # not to 37; the bound is the least one to all twelve bases, and the
    # numbers just below it are still decided
    assert not is_prime(3825123056546413051)
    assert [is_prime(318665857834031151167461 - i) for i in (1, 2)] == [False, False]
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)


@given(st.integers(min_value=1, max_value=10**5))
def test_is_squarefree(n):
    assert is_squarefree(n) == all(e == 1 for _, e in factorize(n))


@given(st.integers(min_value=-10**4, max_value=10**4),
       st.integers(min_value=1, max_value=10**4))
def test_kronecker_against_sympy(a, n):
    assert kronecker(a, n) == jacobi_symbol(a, n) if n % 2 else True


@pytest.mark.parametrize("a,n", [(2, 15), (-1, 3), (-1, 5), (2, 7), (2, 9),
                                 (5, 2), (3, 8), (-4, 9), (0, 1), (7, 1)])
def test_kronecker_spot(a, n):
    # Kronecker symbol extends Jacobi to even lower argument
    table = {(2, 15): 1, (-1, 3): -1, (-1, 5): 1, (2, 7): 1, (2, 9): 1,
             (5, 2): -1, (3, 8): -1, (-4, 9): 1, (0, 1): 1, (7, 1): 1}
    assert kronecker(a, n) == table[(a, n)]


def test_kronecker_multiplicative_in_top():
    for n in (3, 5, 7, 8, 12, 15):
        for a in range(-20, 21):
            for b in range(-20, 21):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(min_value=1, max_value=10**6),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation(n, p):
    v = valuation(n, p)
    assert n % p**v == 0 and (n // p**v) % p != 0


def test_crt_basic():
    x = crt([(2, 3), (3, 5), (2, 7)])
    assert x % 3 == 2 and x % 5 == 3 and x % 7 == 2
    assert 0 <= x < 105


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
def test_bezout(a, b):
    g, x, y = bezout(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(min_value=1, max_value=10**4),
       st.integers(min_value=2, max_value=10**4))
def test_inverse_mod(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(ValueError):
            inverse_mod(a, m)
    else:
        assert (a * inverse_mod(a, m)) % m == 1


def test_component():
    # the p-part of D, multiplicative complement coprime
    assert component(24, 3) == 3
    assert component(24, 8) == 8
    assert component(15, 5) == 5
    for D in (12, 15, 20, 24):
        for p in prime_divisors(D):
            m = component(D, p)
            assert D % m == 0 and math.gcd(m, D // m) == 1
