import random

import pytest

from hermlift.criterion import random_gamma0, sweep_sigmas
from hermlift.quadfield import QuadField, classes
from hermlift.thetamat import (Mat2Z, mat_mul, matrices_equal, theta_eval,
                               theta_matrix, theta_matrix_closed,
                               theta_matrix_closed_factored, theta_slash)
from tests.conftest import ALL_D, SMALL_D

J = Mat2Z(0, -1, 1, 0)
T = Mat2Z(1, 1, 0, 1)


def test_mat2z_group_ops():
    g = Mat2Z(2, 1, 1, 1)
    h = Mat2Z(1, 3, 0, 1)
    assert (g * h).det() == 1
    gi = g.inv()
    assert (g * gi).entries() == (1, 0, 0, 1)
    assert (g * h).entries() != (h * g).entries()


@pytest.mark.parametrize("D", ALL_D)
def test_identity_matrix(D):
    f = QuadField(D)
    M = theta_matrix(f, Mat2Z(1, 0, 0, 1))
    for i in range(D):
        for j in range(D):
            want = 1 if i == j else 0
            assert (M[i][j] - want).is_zero()


@pytest.mark.parametrize("D", ALL_D)
def test_translation_is_diagonal(D):
    # T acts diagonally: phase e[|u|^2] on the u-th theta component
    f = QuadField(D)
    M = theta_matrix(f, T)
    for i in range(D):
        for j in range(D):
            if i != j:
                assert M[i][j].is_zero()
            else:
                assert not M[i][j].is_zero()


def random_pair(f, rng):
    # keep the product's lower-left entry moderate: the defining-sum cost
    # grows like c^2 and the identity itself does not depend on |c|
    while True:
        g1 = random_gamma0(f, rng)
        g2 = random_gamma0(f, rng)
        if abs((g1 * g2).c) <= 4 * f.D:
            return g1, g2


@pytest.mark.parametrize("D", ALL_D)
def test_homomorphism_random_pairs(D):
    f = QuadField(D)
    rng = random.Random(D)
    for _ in range(8):
        g1, g2 = random_pair(f, rng)
        lhs = theta_matrix(f, g1 * g2)
        rhs = mat_mul(theta_matrix(f, g1), theta_matrix(f, g2))
        assert matrices_equal(lhs, rhs), (D, g1.entries(), g2.entries())


@pytest.mark.parametrize("D", ALL_D)
def test_closed_form_matches_defining_sum(D):
    f = QuadField(D)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        assert matrices_equal(theta_matrix(f, sigma),
                              theta_matrix_closed(f, sigma)), (D, sigma.entries())


@pytest.mark.parametrize("D", ALL_D)
def test_factored_form_consistent(D):
    f = QuadField(D)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        scal, light = theta_matrix_closed_factored(f, sigma)
        full = theta_matrix_closed(f, sigma)
        for i in range(D):
            for j in range(D):
                assert (scal * light[i][j] - full[i][j]).is_zero()


@pytest.mark.parametrize("D", SMALL_D)
def test_functional_equation_numeric(D):
    # theta_u | sigma = sum_v M(sigma)[u][v] theta_v at sample points
    f = QuadField(D)
    cls = classes(f)
    pts = [(0.13 + 1.2j, 0.08 + 0.03j, -0.05 + 0.06j),
           (-0.4 + 0.9j, 0.0 + 0.0j, 0.1 + 0.0j),
           (0.02 + 1.6j, -0.07 + 0.02j, 0.03 - 0.04j)]
    for sigma in (J, T, Mat2Z(1, 0, 1, 1)):
        M = theta_matrix(f, sigma)
        for tau, z, w in pts:
            for u_i, u in enumerate(cls):
                lhs = theta_slash(f, u, sigma, tau, z, w, radius=16)
                rhs = sum(
                    M[u_i][v_i].embed() * theta_eval(f, v, tau, z, w, radius=16)
                    for v_i, v in enumerate(cls)
                )
                assert abs(lhs - rhs) < 1e-6, (D, sigma.entries(), tau, u_i)


def test_unimodularity_of_theta_matrix():
    # M(sigma) is unitary: M * conj(M)^t = I (theta components are a basis)
    f = QuadField(7)
    M = theta_matrix(f, J)
    n = len(M)
    for i in range(n):
        for j in range(n):
            s = sum((M[i][k] * M[j][k].conjugate() for k in range(n)),
                    start=type(M[0][0]).zero())
            assert (s - (1 if i == j else 0)).is_zero()


@pytest.mark.parametrize("a", (10**16, 10**19))
def test_defining_sum_exact_for_large_entries(a):
    # unreduced, a*nrm(gamma) wraps around int64 at a = 10^16 and does not
    # convert to int64 at all at a = 10^19
    f = QuadField(7)
    sigma = Mat2Z(a, a - 1, 1, 1)
    assert matrices_equal(theta_matrix(f, sigma), theta_matrix_closed(f, sigma))


def test_defining_sum_refuses_int64_overflow():
    # a lattice too large for int64 is refused before any grid is built;
    # a = 35c + 1 stays large after reduction mod (2D)^2 c
    c = 10**6
    with pytest.raises(OverflowError):
        theta_matrix(QuadField(3), Mat2Z(35 * c + 1, 35, c, 1))
