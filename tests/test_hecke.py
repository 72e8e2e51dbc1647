import random
from fractions import Fraction

import pytest

from hermlift.hecke import (BetaTable, TableRangeError, UnitaryMat4, beta_Tp,
                            coset_reps, verify_beta_conditions,
                            verify_reps_distinct)
from hermlift.quadfield import QuadField


def test_similitude_checked_on_build():
    f = QuadField(3)
    reps = coset_reps(f, 2, 1)
    for r in reps:
        assert r.mu == 1
    with pytest.raises(ValueError):
        UnitaryMat4.make(f, [[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 2, 0], [0, 0, 0, 1]])


def test_inverse_and_product():
    f = QuadField(3)
    for r in coset_reps(f, 2, 5)[:10]:
        y = r * r.inv()
        for i in range(4):
            for j in range(4):
                x = y.rows[i][j]
                assert (x.a, x.b) == ((1, 0) if i == j else (0, 0))


@pytest.mark.parametrize("D,p,N", [(3, 2, 1), (3, 2, 5), (4, 3, 1), (4, 3, 5)])
def test_coset_rep_count(D, p, N):
    f = QuadField(D)
    reps = coset_reps(f, p, N)
    assert len(reps) == 1 + p + p**3 + p**4


@pytest.mark.parametrize("D,p,N", [(3, 2, 1), (3, 2, 5), (4, 3, 1)])
def test_distinctness_fast_agrees_with_pairwise(D, p, N):
    f = QuadField(D)
    assert verify_reps_distinct(f, p, N) is True
    assert verify_reps_distinct(f, p, N, pairwise=True) is True


def test_coset_reps_rejects_bad_input():
    f = QuadField(3)
    with pytest.raises(ValueError):
        coset_reps(f, 7, 1)  # 7 is split in Q(sqrt(-3)): chi(7) = 1
    with pytest.raises(ValueError):
        coset_reps(f, 2, 4)  # p | N
    with pytest.raises(ValueError):
        coset_reps(f, 4, 1)  # not prime


def _random_beta(rng, k, N, bound=60):
    vals = {}

    def fn(u, v):
        if u > bound or v > bound * bound * 4:
            raise TableRangeError("window exceeded")
        key = (u, v)
        if key not in vals:
            vals[key] = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        return vals[key]

    return BetaTable(k, N, fn)


@pytest.mark.parametrize("D,p", [(3, 2), (4, 3)])
@pytest.mark.parametrize("k", (8, 12))
def test_beta_Tp_preserves_conditions(D, p, k):
    # beta_G built from an UNCONSTRAINED random table will not satisfy the
    # divisor-sum identities; build beta_F from an alpha first
    from hermlift.lift import AlphaSeries, beta_from_alpha

    rng = random.Random(100 * D + k)
    f = QuadField(D)
    N = 1
    alpha = AlphaSeries(
        {ell: Fraction(rng.randint(-50, 50)) for ell in range(25000)},
        "maass", 24999)
    betaF = beta_from_alpha(alpha, k, N)
    betaG = beta_Tp(betaF, p, f)
    rep = verify_beta_conditions(betaG, (10, 24), N)
    assert rep["ok"], rep
    assert rep["checked"] > 50


def test_verify_beta_conditions_catches_corruption():
    from hermlift.lift import AlphaSeries, beta_from_alpha

    alpha = AlphaSeries({ell: ell + 1 for ell in range(25000)}, "maass", 24999)
    good = beta_from_alpha(alpha, 8, 1)
    rep = verify_beta_conditions(good, (10, 24), 1)
    assert rep["ok"]

    def bad_fn(u, v):
        if (u, v) == (4, 5):
            return good.value(u, v) + 1
        return good.value(u, v)

    bad = BetaTable(8, 1, bad_fn)
    rep = verify_beta_conditions(bad, (10, 24), 1)
    assert not rep["ok"] and rep["failures"]


def test_beta_table_zero_extension():
    t = BetaTable(8, 1, lambda u, v: u * v + 1)
    assert t.value(0, 5) == 0
    assert t.value(-3, 5) == 0
    assert t.value(2, 5) == 11


def test_distinctness_refuses_int64_overflow(monkeypatch):
    # entries of 2^31 make the sums of 4 products reach 2^64: the einsum
    # would wrap, so the check must raise instead of returning a verdict
    import hermlift.hecke as hecke

    real = hecke._coeff_tensors

    def large(mats):
        x, y = real(mats)
        return x * 2**31, y

    f = QuadField(3)
    assert verify_reps_distinct(f, 2, 1) is True
    monkeypatch.setattr(hecke, "_coeff_tensors", large)
    with pytest.raises(OverflowError):
        verify_reps_distinct(f, 2, 1)


@pytest.mark.parametrize("block,N,distinct", [("B", 1, False), ("B", 5, False), ("C", 5, True)])
def test_distinctness_sees_a_repeated_coset(monkeypatch, block, N, distinct):
    # replace reps[1] by h * reps[0].  h = [[I, pE], [0, I]] lies in
    # alpha^{-1} Gamma_{0,2}(Np) alpha, so the first coset repeats; h =
    # [[I, 0], [E, I]] with E != 0 mod N does not (only the C block differs)
    import hermlift.hecke as hecke

    f, p = QuadField(3), 2
    reps = coset_reps(f, p, N)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    if block == "B":
        rows[0][2] = p
    else:
        rows[2][0] = 1
    changed = reps[:1] + [UnitaryMat4.make(f, rows) * reps[0]] + reps[2:]
    monkeypatch.setattr(hecke, "coset_reps", lambda *args: changed)
    assert verify_reps_distinct(f, p, N) is distinct
    assert verify_reps_distinct(f, p, N, pairwise=True) is distinct
