import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import tests.test_acceptance as acceptance
from hermlift import hecke
from hermlift.arith import prime_divisors, valuation
from hermlift.cyclotomic import CycloNum, root_of_unity
from hermlift.hecke import (BetaTable, TableRangeError, UnitaryMat4, _check_unitary,
                            _in_u22, _same_coset, beta_Tp, coset_key, coset_reps,
                            verify_beta_conditions, verify_reps_distinct)
from hermlift.lift import AlphaSeries, beta_from_alpha
from hermlift.quadfield import AlgInt, QuadField


def test_similitude_checked_on_build():
    f = QuadField(3)
    with pytest.raises(ValueError):  # alpha = diag(I, 2I): g* J4 g = 2 J4
        UnitaryMat4.make(f, [[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 2, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        UnitaryMat4.make(f, [[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 2, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):  # g* J4 g has an entry off the J4 pattern
        UnitaryMat4.make(f, [[1, 1, 0, 0], [0, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])


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


def _check_unitary_oracle(field, rows):
    """g* J4 g = J4 as a product of AlgInts, entry by entry on and above the
    diagonal."""
    jg = [tuple(-x for x in rows[2]), tuple(-x for x in rows[3]), rows[0], rows[1]]
    gc = [[x.conj() for x in row] for row in rows]
    zero = AlgInt(field, 0, 0)
    for i in range(4):
        for j in range(i, 4):
            x = sum((gc[k][i] * jg[k][j] for k in range(4)), zero)
            if (x.a, x.b) != ((-1, 0) if j == i + 2 else (0, 0)):
                raise ValueError("matrix is not in U(2,2)(O_K)")


def _pairs(rows):
    """The [1, 4, 4, 2] integer pairs of a matrix of AlgInts, exact at any size."""
    return np.array([[[(x.a, x.b) for x in row] for row in rows]], dtype=object)


def _check_pairs(field, rows):
    _check_unitary(field, _pairs(rows))


def _accepts(check, field, rows):
    try:
        check(field, rows)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("D,p,N", [(3, 2, 1), (4, 3, 1), (3, 5, 7)])
def test_unitarity_check_agrees_with_the_algint_oracle(D, p, N):
    # every representative, and each with one entry moved by +-1 or +-omega;
    # the moved entry runs through all 16 positions in turn
    f = QuadField(D)
    shifts = [AlgInt(f, 1, 0), AlgInt(f, -1, 0), AlgInt(f, 0, 1), AlgInt(f, 0, -1)]
    rejected = 0
    for n, r in enumerate(coset_reps(f, p, N)):
        assert _accepts(_check_pairs, f, r.rows) and _accepts(_check_unitary_oracle, f, r.rows)
        i, j = divmod(n % 16, 4)
        for s in shifts:
            rows = [list(row) for row in r.rows]
            rows[i][j] = rows[i][j] + s
            got = _accepts(_check_pairs, f, rows)
            assert got == _accepts(_check_unitary_oracle, f, rows), (r.to_json(), i, j, s)
            rejected += not got
    assert rejected > 0


@pytest.mark.parametrize("D,p,q", [(3, 2, 5), (4, 3, 7), (7, 3, 5), (8, 5, 7), (11, 2, 7)])
def test_array_unitarity_agrees_with_the_per_matrix_formula(D, p, q):
    # random unitary matrices (products of representatives for two primes)
    # and copies with one random entry moved, all in one int64 array
    f, rng = QuadField(D), random.Random(D)
    reps = coset_reps(f, p, 1) + coset_reps(f, q, 1)
    mats = []
    for _ in range(200):
        g = rng.choice(reps) * rng.choice(reps)
        rows = [list(row) for row in g.rows]
        if rng.random() < 0.5:
            i, j = rng.randrange(4), rng.randrange(4)
            rows[i][j] = rows[i][j] + AlgInt(f, rng.randint(-2, 2), rng.randint(-2, 2))
        mats.append(rows)
    g = np.concatenate([_pairs(rows) for rows in mats]).astype(np.int64)
    want = [_accepts(_check_unitary_oracle, f, rows) for rows in mats]
    assert _in_u22(f, g).tolist() == want
    assert 50 < sum(want) < 200


def test_coset_reps_are_exact_beyond_int64():
    # at N ~ 10^12 the entries 1 + N gamma and N conj(b) make products of
    # ~10^25: the families are built and checked as Python ints
    f, p, N = QuadField(3), 2, 10**12 + 1
    assert hecke._pair_dtype(f, 2 * N * p) is object
    reps = coset_reps(f, p, N)
    assert len(reps) == 1 + p + p**3 + p**4
    assert max(abs(x.a) for r in reps for row in r.rows for x in row) ** 2 > 2**63
    for r in reps:
        assert all(type(x.a) is int and type(x.b) is int for row in r.rows for x in row)
        assert _accepts(_check_unitary_oracle, f, r.rows) and r.c_block_divisible_by(N)
    assert verify_reps_distinct(f, p, N, reps)


def test_make_refuses_a_non_unitary_matrix_that_int64_would_accept():
    # a d - b c = 2^64 + 1 for the SL2 block (a, b; c, d) = (2^40, -1; 1, 2^24):
    # not unitary, but a d wraps to 0 in int64, which reads a d - b c = 1
    f = QuadField(3)
    rows = [[2**40, 0, -1, 0], [0, 1, 0, 0], [1, 0, 2**24, 0], [0, 0, 0, 1]]
    wrapped = np.array([[[(x, 0) for x in row] for row in rows]], dtype=np.int64)
    assert _in_u22(f, wrapped).tolist() == [True]
    with pytest.raises(ValueError, match="not in U"):
        _check_unitary(f, wrapped)
    with pytest.raises(ValueError, match="not in U"):
        UnitaryMat4.make(f, rows)
    UnitaryMat4.make(f, [[2**40, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])


def test_coset_reps_raise_on_a_faulty_family_member(monkeypatch):
    # member 7 of family 2 with its (0, 2) entry gamma off by one
    real = hecke._families

    def faulty(field, p, N):
        for k, g in enumerate(real(field, p, N)):
            if k == 1:
                g[7, 0, 2, 0] += 1
            yield g

    monkeypatch.setattr(hecke, "_families", faulty)
    with pytest.raises(ValueError, match="matrix 7 is not in U"):
        coset_reps(QuadField(3), 5, 7)


def _all_pairs_distinct(f, p, N, reps):
    """The oracle: compare every pair of representatives directly."""
    return not any(_same_coset(f, p, N, r1, r2)
                   for i, r1 in enumerate(reps) for r2 in reps[i + 1:])


@pytest.mark.parametrize("D,p,N", [(3, 2, 1), (3, 2, 5), (4, 3, 1), (4, 3, 5)])
def test_distinctness_fast_agrees_with_pairwise(D, p, N):
    f = QuadField(D)
    reps = coset_reps(f, p, N)
    assert verify_reps_distinct(f, p, N) is True
    assert _all_pairs_distinct(f, p, N, reps) is True


def _fp2_mul(x, y, f, p):
    t, n = f.omega_trace, f.omega_norm
    return ((x[0] * y[0] - n * x[1] * y[1]) % p,
            (x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1]) % p)


def _fp2_conj(x, f, p):
    return ((x[0] + f.omega_trace * x[1]) % p, -x[1] % p)


def _planes(p):
    """Every 2-space of F_{p^2}^4 once, as its reduced row echelon form."""
    elems = list(itertools.product(range(p), repeat=2))
    zero, one = (0, 0), (1, 0)
    for c0, c1 in itertools.combinations(range(4), 2):
        free0 = [c for c in range(c0 + 1, 4) if c != c1]
        free1 = list(range(c1 + 1, 4))
        for v0 in itertools.product(elems, repeat=len(free0)):
            for v1 in itertools.product(elems, repeat=len(free1)):
                rows = [[zero] * 4, [zero] * 4]
                rows[0][c0] = rows[1][c1] = one
                for c, x in zip(free0, v0):
                    rows[0][c] = x
                for c, x in zip(free1, v1):
                    rows[1][c] = x
                yield tuple(map(tuple, rows))


def _herm(x, y, f, p):
    """x J4 conj(y)^T = x2 y0' + x3 y1' - x0 y2' - x1 y3' over F_{p^2}."""
    out = (0, 0)
    for sign, u, v in ((1, x[2], y[0]), (1, x[3], y[1]), (-1, x[0], y[2]), (-1, x[1], y[3])):
        m = _fp2_mul(u, _fp2_conj(v, f, p), f, p)
        out = ((out[0] + sign * m[0]) % p, (out[1] + sign * m[1]) % p)
    return out


@pytest.mark.parametrize("D,p,planes,isotropic", [(3, 2, 357, 27), (4, 3, 7462, 112)])
def test_coset_keys_are_the_isotropic_planes(D, p, planes, isotropic):
    # the keys of the representatives are exactly the totally isotropic
    # 2-spaces of J4 over F_{p^2}, so the representatives form a complete
    # system of the 1 + p + p^3 + p^4 cosets, not only a distinct one
    f = QuadField(D)
    candidates = list(_planes(p))
    assert len(candidates) == len(set(candidates)) == planes
    want = {rows for rows in candidates
            if all(_herm(x, y, f, p) == (0, 0) for x in rows for y in rows)}
    assert len(want) == isotropic == 1 + p + p**3 + p**4
    assert {coset_key(f, p, r) for r in coset_reps(f, p, 1)} == want


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


@pytest.mark.parametrize("block,N,distinct",
                         [("B", 1, False), ("B", 5, False), ("C", 5, True), ("A", 5, False)])
def test_distinctness_sees_a_repeated_coset(block, N, distinct):
    # replace reps[1] by h * reps[0].  h = [[I, pE], [0, I]] lies in
    # alpha^{-1} Gamma_{0,2}(Np) alpha, so the first coset repeats; so does
    # h = [[A, 0], [0, A*^-1]], which mixes the top rows (the key must be
    # their echelon form, not the rows); h = [[I, 0], [E, I]] with E != 0
    # mod N does not (only the C block differs, so the coset keys collide
    # and the membership test must tell the two apart)
    f, p = QuadField(3), 2
    w = AlgInt(f, 0, 1)
    h = {"B": [[1, 0, p, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "A": [[0, 1, 0, 0], [1, w, 0, 0], [0, 0, -w.conj(), 1], [0, 0, 1, 0]],
         "C": [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]}[block]
    reps = coset_reps(f, p, N)
    reps[1] = UnitaryMat4.make(f, h) * reps[0]
    assert coset_key(f, p, reps[1]) == coset_key(f, p, reps[0])
    assert verify_reps_distinct(f, p, N, reps) is distinct
    assert _all_pairs_distinct(f, p, N, reps) is distinct


def test_distinctness_refuses_a_non_integral_representative():
    # [[I, B], [0, I]] with hermitian B = diag(1/2, 0) satisfies
    # g* J4 g = J4, but is not integral: make refuses it, so no such
    # representative reaches the distinctness check
    f, p = QuadField(3), 2
    reps = coset_reps(f, p, 1)
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="integral"):
        bad = UnitaryMat4.make(f, [[1, 0, half, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0], [0, 0, 0, 1]])
        verify_reps_distinct(f, p, 1, reps[:1] + [bad] + reps[2:])


def _beta_args(w):
    """The (u, d) at which the identity of a failure witness w reads beta."""
    u, d = w["u"], w["d"]
    if w["cond"] == "iii":
        return [(u, d), (1, d * u * u)]
    p = w["p"]
    v = 0
    while u % p ** (v + 1) == 0:
        v += 1
    return [(u, d), (u // p if v else 0, d), (u // p**v, d * p ** (2 * v))]


def test_verify_beta_conditions_locates_a_non_integral_fault():
    # beta(4, 5) + 1/2 on a table from an integral alpha: only the identities
    # that read beta(4, 5) meet a Fraction.  Every identity is linear in
    # beta, so the witnesses are those of beta(4, 5) + 1, found in int
    # arithmetic, and each of them reads beta(4, 5)
    alpha = AlphaSeries({ell: Fraction(ell % 7 - 3) for ell in range(25000)}, "maass", 24999)
    good = beta_from_alpha(alpha, 8, 1)
    reps = []
    for bump in (Fraction(1, 2), 1):
        bad = BetaTable(8, 1, lambda u, v, b=bump: good.value(u, v) + (b if (u, v) == (4, 5) else 0))
        reps.append(verify_beta_conditions(bad, (10, 24), 1))
    half, one = reps
    assert one["failures"] and half["failures"] == one["failures"]
    assert (half["checked"], half["skipped"]) == (one["checked"], one["skipped"])
    for w in half["failures"]:
        assert (4, 5) in _beta_args(w), w


def test_verify_beta_conditions_locates_a_cyclotomic_fault():
    # beta(4, 5) moved by i on a table from an alpha with CycloNum values:
    # the identities are compared exactly with !=, so the witnesses are those
    # of beta(4, 5) + 1, and each of them reads beta(4, 5)
    alpha = AlphaSeries({ell: root_of_unity(Fraction(ell % 5, 5)) * (ell % 3 - 1)
                         for ell in range(25000)}, "maass", 24999)
    good = beta_from_alpha(alpha, 8, 1)
    assert isinstance(good.value(4, 5), CycloNum)
    assert verify_beta_conditions(good, (10, 24), 1)["ok"]
    reps = []
    for bump in (CycloNum.i(), 1):
        bad = BetaTable(8, 1, lambda u, v, b=bump: good.value(u, v) + (b if (u, v) == (4, 5) else 0))
        reps.append(verify_beta_conditions(bad, (10, 24), 1))
    moved, one = reps
    assert moved["failures"] and moved["failures"] == one["failures"]
    assert (4, 5) in {(w["u"], w["d"]) for w in moved["failures"]}
    assert (moved["checked"], moved["skipped"]) == (one["checked"], one["skipped"])
    for w in moved["failures"]:
        assert (4, 5) in _beta_args(w), w


def _identity_holds(beta, w):
    """The identity of the failure witness w, evaluated again on beta."""
    b = [beta.value(u, d) for u, d in _beta_args(w)]
    if w["cond"] == "iii":
        return b[0] == b[1]
    return b[0] - w["p"] ** (beta.k - 1) * b[1] == b[2]


def _beta_Tp_variant(beta, p, fault=None):
    """beta_Tp's recursion written out term by term, optionally with one of
    two faults: "drop" leaves out the p^(4-2k) term, "p" writes p for p + 1
    in the p !| r branch."""
    k = beta.k

    def fn(u, r):
        v = next(v for v in itertools.count() if u % p ** (v + 1))
        q = u // p**v
        down, up = (q * p ** (v - 1) if v else 0), q * p ** (v + 1)
        out = beta.value(down, r)
        if fault != "drop":
            out = out + Fraction(1, p ** (2 * k - 4)) * beta.value(up, r)
        if r % (p * p) == 0:
            out = out + Fraction(1, p ** (k - 1)) * beta.value(up, r // (p * p))
            out = out + Fraction(1, p ** (k - 3)) * beta.value(down, r * p * p)
        elif r % p == 0:
            out = out + Fraction(1, p ** (k - 1)) * beta.value(u, r)
            out = out + Fraction(1, p ** (k - 3)) * beta.value(down, r * p * p)
        else:
            out = out + Fraction(p if fault == "p" else p + 1, p ** (k - 1)) * beta.value(u, r)
            out = out + Fraction(p * p - p, p ** (k - 1)) * beta.value(down, r * p * p)
        return out

    return BetaTable(k, beta.N, fn)


def test_beta_Tp_equals_the_fraction_recursion():
    # over one denominator p^(2k-4), on c08's tables and on tables with
    # non-integral and cyclotomic values: equal values, a Fraction from ints
    tables = [(f, p, betaF) for _, _, f, p, betaF in acceptance.c08_beta_tables()]
    for alpha in (AlphaSeries({ell: Fraction(ell % 7 - 3, 3) for ell in range(25000)}, "maass", 24999),
                  AlphaSeries({ell: root_of_unity(Fraction(ell % 5, 5)) * (ell % 3 - 1)
                               for ell in range(25000)}, "maass", 24999)):
        for k in (8, 12):
            tables += [(QuadField(3), 2, beta_from_alpha(alpha, k, 1)),
                       (QuadField(4), 3, beta_from_alpha(alpha, k, 1))]
    for f, p, betaF in tables:
        want, got = _beta_Tp_variant(betaF, p), beta_Tp(betaF, p, f)
        for u in range(1, 11):
            for d in range(25):
                x, y = want.value(u, d), got.value(u, d)
                assert x == y and type(x) is type(y) is not int, (u, d)
    with pytest.raises(ValueError, match="k >= 3"):
        beta_Tp(BetaTable(2, 1, lambda u, v: 0), 2, QuadField(3))


def test_c08_locates_a_faulty_beta_Tp():
    # on every c08 table, the variant without a fault is beta_Tp on the
    # window; with either fault verify_beta_conditions FAILs, and the
    # identity of each witness does not hold on the faulty table
    for k, trial, f, p, betaF in acceptance.c08_beta_tables():
        plain, real = _beta_Tp_variant(betaF, p), beta_Tp(betaF, p, f)
        assert all(plain.value(u, d) == real.value(u, d) for u in range(1, 11) for d in range(25))
        for fault in ("drop", "p"):
            betaG = _beta_Tp_variant(betaF, p, fault)
            rep = verify_beta_conditions(betaG, (10, 24), 1)
            assert (rep["checked"], rep["skipped"]) == (1000, 0), (fault, k, trial)
            assert rep["failures"], (fault, k, trial)
            for w in rep["failures"][:5]:
                assert 1 <= w["u"] <= 10 and 0 <= w["d"] <= 24, w
                assert not _identity_holds(betaG, w), (fault, k, trial, w)


def _verify_beta_conditions_reference(beta, window, N):
    """verify_beta_conditions as it read before its per-u quantities were
    hoisted out of the d loop: every identity reads all of its values."""
    u_max, d_max = window
    checked = skipped = 0
    failures = []
    for u in range(1, u_max + 1):
        for d in range(0, d_max + 1):
            if u > 1 and all(N % p == 0 for p in prime_divisors(u)):
                try:
                    if beta.value(u, d) != beta.value(1, d * u * u):
                        failures.append({"cond": "iii", "u": u, "d": d})
                    checked += 1
                except TableRangeError:
                    skipped += 1
            for p in (2, 3, 5, 7):
                if N % p == 0:
                    continue
                v = valuation(u, p)
                q = u // p**v
                try:
                    lhs = beta.value(u, d) - p ** (beta.k - 1) * beta.value(u // p if v else 0, d)
                    if lhs != beta.value(q, d * p ** (2 * v)):
                        failures.append({"cond": "ii", "u": u, "d": d, "p": p})
                    checked += 1
                except TableRangeError:
                    skipped += 1
    return {"checked": checked, "skipped": skipped, "failures": failures,
            "ok": not failures}


def _fault_tables():
    """The tables of the fault tests above, each with its level: beta(4, 5)
    moved by 1, 1/2 and i, and random tables that run out of range."""
    ramp = beta_from_alpha(AlphaSeries({ell: ell + 1 for ell in range(25000)}, "maass", 24999), 8, 1)
    frac = beta_from_alpha(AlphaSeries({ell: Fraction(ell % 7 - 3) for ell in range(25000)},
                                       "maass", 24999), 8, 1)
    cyc = beta_from_alpha(AlphaSeries({ell: root_of_unity(Fraction(ell % 5, 5)) * (ell % 3 - 1)
                                       for ell in range(25000)}, "maass", 24999), 8, 1)
    out = []
    for good, bumps in ((ramp, (1,)), (frac, (Fraction(1, 2), 1)), (cyc, (CycloNum.i(), 1))):
        out.append((good, 1))
        for b in bumps:
            out.append((BetaTable(8, 1, lambda u, v, g=good, b=b: g.value(u, v) + (b if (u, v) == (4, 5) else 0)), 1))
    for N, bound in ((1, 60), (1, 8), (6, 8), (6, 3)):
        out.append((_random_beta(random.Random(N * bound), 8, N, bound), N))
    return out


def test_verify_beta_conditions_report_matches_the_reference():
    # checked, skipped and the failures in their order are those of the
    # loop that reads every value afresh
    for beta, N in _fault_tables():
        want = _verify_beta_conditions_reference(beta, (10, 24), N)
        assert verify_beta_conditions(beta, (10, 24), N) == want
        assert want["checked"] + want["skipped"] > 0
    skips = [_verify_beta_conditions_reference(b, (10, 24), N)["skipped"] for b, N in _fault_tables()]
    assert any(skips)
