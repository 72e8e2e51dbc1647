import random

import pytest

from hermlift import criterion
from hermlift.criterion import (expected_delta, inner_sum_closed,
                                inner_sum_direct, random_gamma0, sweep_sigmas,
                                verify_criterion)
from hermlift.quadfield import QuadField, classes
from tests.conftest import SMALL_D


@pytest.mark.parametrize("D", SMALL_D)
def test_inner_sums_closed_vs_direct(D):
    f = QuadField(D)
    cls = classes(f)
    for sigma in sweep_sigmas(f):
        if sigma.c <= 0 or D % sigma.c != 0:
            continue
        for u in cls:
            for w in cls:
                lhs = inner_sum_direct(f, sigma, u, w)
                rhs = inner_sum_closed(f, sigma, u, w)
                assert (lhs - rhs).is_zero(), (D, sigma.entries(), u.key, w.key)


@pytest.mark.parametrize("D", (3, 4))
def test_criterion_single_triples(D):
    rep = verify_criterion(QuadField(D), 1, translates=0)
    assert rep["failures"] == []
    assert rep["triples_checked"] == len(sweep_sigmas(QuadField(D))) * D * D


@pytest.mark.parametrize("D", SMALL_D)
def test_criterion_float_agrees(D):
    rep = verify_criterion(QuadField(D), 1, arithmetic="float", translates=0, tol=1e-9)
    assert rep["failures"] == []
    assert rep["triples_checked"] == len(sweep_sigmas(QuadField(D))) * D * D


def test_expected_delta_is_congruence_indicator():
    f = QuadField(7)
    cls = classes(f)
    for v in cls:
        for w in cls:
            d = expected_delta(f, v, w)
            assert d == (1 if (v.dnorm - w.dnorm) % 7 == 0 else 0)


def test_verify_criterion_report_shape():
    f = QuadField(3)
    rep = verify_criterion(f, 1, seed=42, translates=1)
    assert rep["D"] == 3 and rep["N"] == 1
    assert rep["failures"] == []
    assert rep["triples_checked"] > 0
    assert rep["wall_time"] >= 0
    # deterministic given the seed
    rep2 = verify_criterion(f, 1, seed=42, translates=1)
    assert rep2["triples_checked"] == rep["triples_checked"]


def test_verify_criterion_rejects_bad_level():
    f = QuadField(3)
    with pytest.raises(ValueError):
        verify_criterion(f, 6)
    with pytest.raises(ValueError):
        verify_criterion(f, 1, arithmetic="symbolic")


def test_random_gamma0_in_group():
    f = QuadField(15)
    rng = random.Random(0)
    for _ in range(50):
        g = random_gamma0(f, rng)
        assert g.det() == 1
        assert g.c % 15 == 0


@pytest.mark.parametrize("arithmetic, target",
                         [("exact", "inner_sum_closed"), ("float", "_inner_sum_float")])
def test_verify_criterion_reports_injected_fault(monkeypatch, arithmetic, target):
    # double A_u wherever c | D: then A = 2*delta, so exactly the triples
    # with delta = 1 and such sigma must fail, with located witnesses
    D = 7
    orig = getattr(criterion, target)

    def doubled(field, sigma, u, w):
        val = orig(field, sigma, u, w)
        return 2 * val if sigma.c > 0 and D % sigma.c == 0 else val

    monkeypatch.setattr(criterion, target, doubled)
    rep = verify_criterion(QuadField(D), 1, seed=0, arithmetic=arithmetic,
                           translates=1)
    assert rep["failures"]
    for fail in rep["failures"]:
        assert set(fail) == {"sigma", "v", "w", "lhs", "expected"}
        c = fail["sigma"][2]
        assert c > 0 and D % c == 0
        assert fail["expected"] == 1


def test_j_table_is_bounded_and_keeps_its_hits(monkeypatch):
    # one miss per distinct sigma of the direct inner sums: the bound does
    # not cost a hit, and random translates cannot grow the cache
    seen, orig = set(), criterion.inner_sum_direct

    def recorded(field, sigma, u, w):
        seen.add(sigma.entries())
        return orig(field, sigma, u, w)

    monkeypatch.setattr(criterion, "inner_sum_direct", recorded)
    criterion._j_table.cache_clear()
    rep = verify_criterion(QuadField(7), 1, seed=3, translates=2)
    assert rep["failures"] == []
    info = criterion._j_table.cache_info()
    assert info.maxsize is not None and info.maxsize <= 16
    assert info.misses == len(seen) > info.maxsize
