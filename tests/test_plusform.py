import cmath
import json
import math
from fractions import Fraction

import pytest

import tests.test_acceptance as acceptance
from hermlift.cyclotomic import CycloNum
from hermlift.lift import special_jacobi_alpha
from hermlift.plusform import (QExpansion, TruncationError, build_Pm,
                               eisenstein_star, is_plus, slash_eval)
from hermlift.quadfield import QuadField, a_D
from hermlift.thetamat import Mat2Z
from tests.conftest import ALL_D


def test_qexpansion_access_and_truncation():
    g = QExpansion.make(7, 1, 3, 1, [0, 1, None, -5])
    assert g.coeff(1) == 1
    assert g.coeff(2) is None
    with pytest.raises(TruncationError):
        g.coeff(4)
    with pytest.raises(TruncationError):
        g.coeff(-1)


@pytest.mark.parametrize("c", (1e-13, 2.0, complex(1, -2), {"re": 1, "im": 0}, "1/3"))
def test_qexpansion_takes_only_exact_coefficients(c):
    with pytest.raises(ValueError, match="not an int, Fraction or CycloNum"):
        QExpansion.make(7, 1, 3, 1, [0, c, None])


def test_qexpansion_json_roundtrip():
    g = QExpansion.make(7, 2, 4, 4, [Fraction(1, 3), None, 2, Fraction(-8, 4)])
    d = json.loads(json.dumps(g.to_dict()))
    assert d["coeffs"] == ["1/3", None, 2, -2]
    g2 = QExpansion.from_dict(d)
    assert g2 == g and [type(c) for c in g2.coeffs] == [Fraction, type(None), int, int]


def test_eval_truncation_guard():
    g = QExpansion.make(7, 1, 3, 1, [1] * 10)
    with pytest.raises(TruncationError):
        g.eval(0.01 + 0.001j)  # tail bound cannot be met this low
    v = g.eval(2j)
    direct = sum(cmath.exp(2j * cmath.pi * ell * 2j) for ell in range(10))
    assert abs(v - direct) < 1e-12


@pytest.mark.parametrize("D", ALL_D)
@pytest.mark.parametrize("k", (8, 12))
def test_eisenstein_star_is_plus(D, k):
    f = QuadField(D)
    g = eisenstein_star(f, k, 80)
    assert is_plus(f, g)


def test_eisenstein_star_spot_values():
    # D = 3, k = 8: a_2 = a_D(2) * (chi(1) + chi(2)*2^6) = 2 * (1 - 64) = -126
    f = QuadField(3)
    g = eisenstein_star(f, 8, 10)
    assert g.coeff(2) == -126
    assert g.coeff(0) is None  # outside the coprime range: unspecified
    assert g.coeff(3) is None
    # vanishing on the non-plus support
    for ell in range(1, 10):
        if math.gcd(ell, 3) == 1 and a_D(f, ell) == 0:
            assert g.coeff(ell) == 0


def test_is_plus_detects_violations():
    f = QuadField(3)
    # l = 1 has a_D(1) = prod chi_p(-1) ... find an l with a_D(l) = 0
    bad = next(ell for ell in range(1, 20) if a_D(f, ell) == 0)
    cs = [0] * 20
    cs[bad] = 1
    assert not is_plus(f, QExpansion.make(7, 1, 3, 1, cs))
    cs[bad] = 0
    assert is_plus(f, QExpansion.make(7, 1, 3, 1, cs))


def test_is_plus_decides_exact_coefficients_exactly():
    # a_D(1) = 0 at D = 3, so an exact nonzero a_1, however small, is not plus
    f = QuadField(3)
    assert a_D(f, 1) == 0
    g = QExpansion.make(7, 1, 3, 1, [0, Fraction(1, 10**13)] + [0] * 10)
    assert not is_plus(f, g)
    with pytest.raises(ValueError):
        special_jacobi_alpha(f, 1, g)
    with pytest.raises(ValueError):
        QExpansion.make(7, 1, 3, 1, [0, 1e-13] + [0] * 10)
    assert not is_plus(f, QExpansion.make(7, 1, 3, 1, [0, CycloNum.i() * Fraction(1, 10**13)]))


@pytest.mark.parametrize("D", ALL_D)
def test_build_Pm_congruences(D):
    from hermlift.arith import divisors

    for m in divisors(D):
        if math.gcd(m, D // m) != 1:
            continue
        for N in (1, 5, 7):
            if math.gcd(N, D) != 1:
                continue
            P = build_Pm(D, m, N)
            n = D // m
            a, b, c, d = P.entries()
            assert P.det() == 1
            M1, M2 = m * m, (n * N) ** 2
            assert (a % M1, (b + 1) % M1, (c - 1) % M1, d % M1) == (0, 0, 0, 0)
            assert ((a - 1) % M2, b % M2, c % M2, (d - 1) % M2) == (0, 0, 0, 0)


def test_build_Pm_trivial_and_errors():
    P = build_Pm(3, 1, 4)
    assert P.entries() == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        build_Pm(3, 2, 1)  # m does not divide D
    with pytest.raises(ValueError):
        build_Pm(4, 2, 1)  # m and D/m not coprime
    with pytest.raises(ValueError):
        build_Pm(3, 3, 3)  # N not coprime to D


def test_slash_is_right_action():
    # (g|A)|B = g|(AB) numerically, away from the truncation regime
    f = QuadField(3)
    g = eisenstein_star(f, 8, 600)
    tau = 0.05 + 2.0j
    A = Mat2Z(1, 1, 0, 1)
    B = Mat2Z(1, 0, 1, 1)
    lhs = slash_eval(g, A * B, tau)
    inner = (A.a * (B.a * tau + B.b) / (B.c * tau + B.d) + A.b) / (
        A.c * (B.a * tau + B.b) / (B.c * tau + B.d) + A.d)
    rhs = (B.c * tau + B.d) ** (-g.weight) * (
        A.c * (B.a * tau + B.b) / (B.c * tau + B.d) + A.d) ** (-g.weight) * g.eval(inner)
    assert abs(lhs - rhs) < 1e-8


def test_c10_locates_a_broken_Pm_congruence(monkeypatch):
    # P_m (1 m^2; 0 1) is still J mod m^2 but no longer I mod (nN)^2
    orig = acceptance.build_Pm

    def broken(D, m, N):
        P = orig(D, m, N)
        return P * Mat2Z(1, m * m, 0, 1) if (D, m, N) == (15, 3, 7) else P

    monkeypatch.setattr(acceptance, "build_Pm", broken)
    assert acceptance.Pm_failures() == [(15, 3, 7)]
