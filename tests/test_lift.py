import cmath
import math
from fractions import Fraction

import pytest

import tests.test_acceptance as acceptance
from hermlift.cyclotomic import CycloNum
from hermlift.hecke import TableRangeError
from hermlift.lift import (AlphaSeries, HermitianCoeffKey, beta_from_alpha,
                           epsilon_T, maass_coeff, plus_coeff_from_alpha,
                           special_jacobi_alpha, theta_decompose)
from hermlift.plusform import QExpansion, eisenstein_star
from hermlift.quadfield import QuadField, a_D, classes
from tests.conftest import ALL_D


def test_alpha_series_access():
    a = AlphaSeries({1: 5, 3: -2}, "maass", 10, frozenset({7}))
    assert a.value(1) == 5
    assert a.value(2) == 0
    with pytest.raises(ValueError):
        a.value(7)
    with pytest.raises(TableRangeError):
        a.value(11)


def test_alpha_series_reads_integral_fractions_as_int():
    # the table keeps its Fractions; only an integral value is read as int
    z = CycloNum.i()
    table = {1: Fraction(6), 2: Fraction(-4, 2), 3: Fraction(1, 3), 4: z}
    a = AlphaSeries(table, "maass", 10)
    assert [(type(a.value(ell)), a.value(ell)) for ell in (1, 2, 3, 5)] == [
        (int, 6), (int, -2), (Fraction, Fraction(1, 3)), (int, 0)]
    assert a.value(4) is z and type(table[1]) is Fraction


@pytest.mark.parametrize("D", ALL_D)
@pytest.mark.parametrize("N", (1, 7))
def test_roundtrip_alpha_and_plus_coeffs(D, N):
    # a_l(g) -> alpha*(l) -> a_l(g), exactly, for the Eisenstein plus form;
    # a level sharing a factor with D is refused
    f = QuadField(D)
    g = eisenstein_star(f, 8, 60)
    if math.gcd(D, N) != 1:
        for build in (special_jacobi_alpha, theta_decompose):
            with pytest.raises(ValueError, match="coprime"):
                build(f, N, g)
        return
    alpha = special_jacobi_alpha(f, N, g)
    for ell in range(60):
        c = g.coeffs[ell]
        if c is None:
            continue
        back = plus_coeff_from_alpha(f, N, alpha, ell)
        assert (back - c).is_zero(), (D, N, ell)


@pytest.mark.parametrize("D", (3, 4, 15, 24))
def test_theta_decompose_support(D):
    f = QuadField(D)
    g = eisenstein_star(f, 8, 60)
    comps = theta_decompose(f, 1, g)
    assert set(comps) == set(classes(f))
    for u, gu in comps.items():
        res = (-u.dnorm) % D
        assert gu.denom == D
        for ell, c in enumerate(gu.coeffs):
            if ell % D != res:
                assert c == 0 or (isinstance(c, CycloNum) and c.is_zero())
    # components with equal D|u|^2 mod D coincide
    by_res = {}
    for u, gu in comps.items():
        r = (-u.dnorm) % D
        if r in by_res:
            assert gu is by_res[r]
        else:
            by_res[r] = gu


def test_theta_decompose_components_evaluate():
    # CycloNum coefficients are evaluated through their embedding
    one = QExpansion.make(7, 1, 3, 1, [0, CycloNum.i()])
    assert abs(one.eval(2j) - 1j * cmath.exp(-4 * cmath.pi)) < 1e-15
    f = QuadField(7)
    tau = 0.1 + 1.5j
    comps = theta_decompose(f, 1, eisenstein_star(f, 8, 40)).values()
    comps = list({id(g): g for g in comps}.values())  # one per D|u|^2 mod D
    assert sum(isinstance(c, CycloNum) for gu in comps for c in gu.coeffs) > len(comps)
    for gu in comps:
        want = sum(complex(c.embed() if isinstance(c, CycloNum) else c)
                   * cmath.exp(2j * cmath.pi * ell * tau / gu.denom)
                   for ell, c in enumerate(gu.coeffs) if c is not None)
        assert abs(gu.eval(tau) - want) <= 1e-9 * max(1, abs(want)), gu


def test_theta_decompose_rejects_non_plus():
    f = QuadField(3)
    bad = next(ell for ell in range(1, 20) if a_D(f, ell) == 0)
    cs = [0] * 20
    cs[bad] = 1
    with pytest.raises(ValueError):
        theta_decompose(f, 1, QExpansion.make(7, 1, 3, 1, cs))


def test_hermitian_key_geometry():
    f = QuadField(3)
    key = HermitianCoeffKey(f, 2, 2, 2, 0)
    # D*det = 3*2*2 - N(2) = 12 - 4 = 8; eps = gcd(2,2,2,0) = 2
    assert key.ddet == 8
    assert epsilon_T(key) == 2
    with pytest.raises(ValueError):
        HermitianCoeffKey(f, 1, 1, 5, 0)  # negative determinant
    with pytest.raises(ValueError):
        HermitianCoeffKey(f, -1, 1, 0, 0)
    with pytest.raises(ValueError):
        epsilon_T(HermitianCoeffKey(f, 0, 0, 0, 0))


def test_maass_coeff_divisor_sum():
    # alpha(l) = l^2 + 1 gives c_F(T) = sum_{d | 2} d^7 alpha(8/d^2):
    # alpha(8) + 128*alpha(2) = 65 + 128*5 = 705
    f = QuadField(3)
    alpha = AlphaSeries({ell: ell * ell + 1 for ell in range(100)}, "maass", 99)
    key = HermitianCoeffKey(f, 2, 2, 2, 0)
    assert maass_coeff(f, 1, 8, alpha, key) == 705
    # level divides out non-coprime divisors
    assert maass_coeff(f, 2, 8, alpha, key) == 65


@pytest.mark.parametrize("D", (3, 4, 8))
def test_maass_coeff_well_defined_on_eps_ddet(D):
    # c_F(T) depends on T only through (eps(T), D det T)
    f = QuadField(D)
    alpha = AlphaSeries({ell: 3 * ell + 7 for ell in range(300)}, "maass", 299)
    seen = {}
    bound = 4
    for ell in range(bound + 1):
        for m in range(bound + 1):
            for t1 in range(-bound, bound + 1):
                for t2 in range(-bound, bound + 1):
                    if (ell, m, t1, t2) == (0, 0, 0, 0):
                        continue
                    try:
                        key = HermitianCoeffKey(f, ell, m, t1, t2)
                    except ValueError:
                        continue
                    if key.ddet > 299:
                        continue
                    c = maass_coeff(f, 1, 8, alpha, key)
                    sig = (epsilon_T(key), key.ddet)
                    if sig in seen:
                        assert c == seen[sig], (D, sig)
                    else:
                        seen[sig] = c
    # enough nontrivial content classes to make the check meaningful
    multi = [s for s in seen if s[0] > 1]
    assert multi


def test_beta_identities_from_alpha():
    # divisor-sum identities: beta(u, v) = beta(1, v u^2) for u | N^infty,
    # and the p-recursion beta(p^v q, d) - p^(k-1) beta(p^(v-1) q, d)
    # = beta(q, d p^(2v)) for p coprime to N*q
    from hermlift.hecke import verify_beta_conditions

    alpha = AlphaSeries({ell: ell * ell * ell - 2 * ell + 1 for ell in range(20000)},
                        "maass", 19999)
    for N in (1, 6):
        beta = beta_from_alpha(alpha, 8, N)
        rep = verify_beta_conditions(beta, (12, 30), N)
        assert rep["ok"], rep
        assert rep["checked"] > 100


def test_c07_locates_a_plus_coefficient_off_by_one(monkeypatch):
    # a_11 at D = 15 comes back off by one, at both of c07's levels
    orig = acceptance.plus_coeff_from_alpha

    def off(field, N, alpha, ell):
        out = orig(field, N, alpha, ell)
        return out + 1 if (field.D, ell) == (15, 11) else out

    monkeypatch.setattr(acceptance, "plus_coeff_from_alpha", off)
    assert acceptance.round_trip_failures() == [(15, 1, 11), (15, 2, 11)]
