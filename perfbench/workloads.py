"""The benchmark's three workloads, built from a seed and run against the
public hermlift API.

`WORKLOADS[name](seed)` is the set-up: it builds every input (fields, sigma
lists, alpha tables, eigendata) and returns the parts to run.  Running a part
checks its identities into a `Tally`.  Library functions are looked up
through their module at call time, so that a tracer installed after set-up
sees every call.

Why each workload exists:
  criterion-exact   many tiny sparse cyclotomic products in verdict assembly
                    (per-call overhead of the exact kernel dominates);
  theta-coherence   few dense products of high cyclotomic order (the theta
                    lattice sum), the opposite use of the same kernel;
  small-identities  the control: character sums, Hecke cosets, beta tables,
                    eigenform twists and the float criterion route, where
                    the cyclotomic order is tiny or zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from hermlift import arith, charsums, criterion, hecke, ikeda, lift, plusform, quadfield, thetamat

ALL_D = (3, 4, 7, 8, 11, 15, 19, 20, 23, 24)
MAX_WITNESSES = 5


@dataclass
class Tally:
    """Identities evaluated and failed, with the first few failure witnesses
    and the counts the workload reports besides them."""

    evaluated: int = 0
    failed: int = 0
    witnesses: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, ok: bool, witness) -> None:
        self.evaluated += 1
        if not ok:
            self.fail(witness)

    def fail(self, witness, n: int = 1) -> None:
        self.failed += n
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(str(witness))

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


@dataclass
class Part:
    name: str
    run: Callable[[Tally], None]


def check(tally: Tally, witness, identity: Callable[[], bool]) -> None:
    """Evaluate one identity; one that raises counts as failed."""
    try:
        ok = identity()
    except Exception as exc:  # the witness keeps the error
        tally.record(False, f"{witness}: {exc!r}")
        return
    tally.record(ok, witness)


# ---------------------------------------------------------------------------
# the criterion sweep (exact and float)


def verdicts_per_sigma(f: quadfield.QuadField) -> int:
    """Distinct (v, D|w|^2 mod D) verdicts for one sigma."""
    return f.D * len({u.dnorm % f.D for u in quadfield.classes(f)})


def run_criterion(tally: Tally, f, seed: int, translates: int, arithmetic: str) -> None:
    rep = criterion.verify_criterion(f, 1, seed=seed, arithmetic=arithmetic,
                                     translates=translates)
    # triples fan each verdict out to the D / (distinct values) classes w
    tally.evaluated += rep["triples_checked"] * verdicts_per_sigma(f) // (f.D * f.D)
    for failure in rep["failures"]:
        tally.fail(("criterion", f.D, arithmetic, failure))
    if arithmetic == "exact":
        sigmas = (1 + translates) * len(criterion.sweep_sigmas(f))
        tally.add("criterion.verdicts", sigmas * verdicts_per_sigma(f))


def criterion_exact(seed: int) -> list[Part]:
    """c01's exact sweep at D=8 (even, B_u + C_u branch) and D=15 (odd,
    three prime components)."""
    fields = [quadfield.QuadField(D) for D in (8, 15)]
    return [Part(f"criterion D={f.D}", lambda t, f=f: run_criterion(t, f, seed, 3, "exact"))
            for f in fields]


# ---------------------------------------------------------------------------
# theta matrix coherence

# Expected count of each (|c1|/D, |c2|/D, |c1 c2|/D) kind among 20 pairs
# drawn by c03's sampler (random_gamma0 pairs with |c| <= 4D), rounded from
# 200k draws.  The cost of a pair grows with |c|, so drawing a fixed mix
# keeps the work the same for every seed while the pairs still vary.
PAIR_MIX = {
    8: {(0, 0, 0): 2, (0, 1, 1): 6, (1, 0, 1): 6, (1, 1, 0): 1, (1, 1, 2): 3, (1, 1, 4): 2},
    15: {(0, 0, 0): 2, (0, 1, 1): 7, (1, 0, 1): 7, (1, 1, 0): 1, (1, 1, 2): 1, (1, 1, 3): 1,
         (1, 1, 4): 1},
}


def gamma0_pairs(f, rng: random.Random) -> list:
    """The seeded Gamma_0(D) pairs (g1, g2) in the PAIR_MIX proportions."""
    want = dict(PAIR_MIX[f.D])
    pairs = []
    while any(want.values()):
        g1 = criterion.random_gamma0(f, rng)
        g2 = criterion.random_gamma0(f, rng)
        kind = (abs(g1.c) // f.D, abs(g2.c) // f.D, abs((g1 * g2).c) // f.D)
        if want.get(kind, 0) > 0 and abs((g1 * g2).c) <= 4 * f.D:
            want[kind] -= 1
            pairs.append((g1, g2))
    rng.shuffle(pairs)
    return pairs


def run_homomorphism(tally: Tally, f, pairs) -> None:
    for g1, g2 in pairs:
        check(tally, ("homomorphism", f.D, g1.entries(), g2.entries()),
              lambda: thetamat.matrices_equal(
                  thetamat.theta_matrix(f, g1 * g2),
                  thetamat.mat_mul(thetamat.theta_matrix(f, g1), thetamat.theta_matrix(f, g2))))


def run_closed_sweep(tally: Tally, f, sigmas) -> None:
    for s in sigmas:
        check(tally, ("closed form", f.D, s.entries()),
              lambda: thetamat.matrices_equal(thetamat.theta_matrix(f, s),
                                              thetamat.theta_matrix_closed(f, s)))


def theta_coherence(seed: int) -> list[Part]:
    """c03 at D=8 and D=15: the homomorphism on 20 seeded pairs and the
    closed form against the defining sum on the c | D sweep."""
    parts = []
    for D in (8, 15):
        f = quadfield.QuadField(D)
        pairs = gamma0_pairs(f, random.Random(f"theta-coherence:{seed}:{D}"))
        sweep = [s for s in criterion.sweep_sigmas(f) if s.c > 0 and D % s.c == 0]
        parts.append(Part(f"homomorphism D={D}", lambda t, f=f, p=pairs: run_homomorphism(t, f, p)))
        parts.append(Part(f"closed sweep D={D}", lambda t, f=f, s=sweep: run_closed_sweep(t, f, s)))
    return parts


# ---------------------------------------------------------------------------
# small identities (the control workload)


def run_salie(tally: Tally) -> None:
    for p in (3, 5, 7, 11):
        for x in range(p):
            for y in range(p):
                for z in range(1, p):
                    check(tally, ("salie", p, x, y, z),
                          lambda: charsums.salie_check(p, x, y, z)[2])


def gauss_identity(psi, m: int) -> bool:
    G = charsums.gauss_sum(psi)
    return (G * G - psi(-1) * m).is_zero() and charsums.check_closed_form(psi)


def run_gauss(tally: Tally, fields) -> None:
    for f in fields:
        for m in arith.divisors(f.D):
            if m == 1 or math.gcd(m, f.D // m) != 1:
                continue
            psi = quadfield.chi_component(f, m)
            check(tally, ("gauss", f.D, m), lambda: gauss_identity(psi, m))


def norm_sum_target(f, N: int, t: int) -> int:
    """The closed form chi(N) * N of the norm sum."""
    return f.chi(N) * N


def run_norm_sums(tally: Tally, fields) -> None:
    for f in fields:
        for N in range(1, 21):
            if math.gcd(N, f.D) != 1:
                continue
            for t in range(1, N + 1):
                if math.gcd(t, N) == 1:
                    check(tally, ("norm_sum", f.D, N, t),
                          lambda: (charsums.norm_sum(f, N, t) - norm_sum_target(f, N, t)).is_zero())


def run_cosets(tally: Tally, cases) -> None:
    for f, p, N in cases:
        check(tally, ("coset count", f.D, p, N),
              lambda: len(hecke.coset_reps(f, p, N)) == 1 + p + p**3 + p**4)
        check(tally, ("cosets distinct", f.D, p, N),
              lambda: hecke.verify_reps_distinct(f, p, N))


def run_beta(tally: Tally, alpha, window, N: int, k: int, p: int | None = None, f=None) -> None:
    beta = lift.beta_from_alpha(alpha, k, N)
    if p is not None:
        beta = hecke.beta_Tp(beta, p, f)
    rep = hecke.verify_beta_conditions(beta, window, N)
    tally.evaluated += rep["checked"]
    tally.add("hecke.beta_checked", rep["checked"])
    for failure in rep["failures"]:
        tally.fail(("beta", k, N, p, failure))


def run_lift(tally: Tally, fields) -> None:
    for f in fields:
        g = plusform.eisenstein_star(f, 8, 4 * f.D)
        alpha = lift.special_jacobi_alpha(f, 1, g)
        for ell, c in enumerate(g.coeffs):
            if c is not None:
                check(tally, ("lift round trip", f.D, ell),
                      lambda: (lift.plus_coeff_from_alpha(f, 1, alpha, ell) - c).is_zero())


def run_fstar(tally: Tally, eigen) -> None:
    for ed, ells in eigen:
        for ell in ells:
            for M in range(1, 501):
                # fstar_coeff raises when its two evaluation paths disagree
                check(tally, ("fstar", ed.field.D, ell, M),
                      lambda: ikeda.fstar_coeff(ed, ell, M) is not None)


def small_identities(seed: int) -> list[Part]:
    """Exhaustive Salie, Gauss and norm sums (c04-c06), Hecke cosets (c08),
    the lift round trip and beta identities (c07, c08), the eigenform twists
    (c09) and the float criterion oracle at D=7 (c01).  Against the
    campaigns, Salie stops at p = 11, c08 keeps its two p = 5 coset cases and
    8 of its 50 beta tables, and the float sweep takes one translate, so
    that a repetition takes about as long as those of the other workloads."""
    rng = random.Random(f"small-identities:{seed}")
    fields = [quadfield.QuadField(D) for D in ALL_D]
    by_D = dict(zip(ALL_D, fields))
    cosets = [(by_D[3], 5, 1), (by_D[3], 5, 7)]
    alpha = lift.AlphaSeries({ell: Fraction(rng.randint(-60, 60)) for ell in range(510000)},
                             "maass", 509999)
    hecke_tables = []
    for k in (8, 12):
        for trial in range(4):
            D, p = ((3, 2), (4, 3))[trial % 2]
            table = lift.AlphaSeries({ell: Fraction(rng.randint(-40, 40)) for ell in range(25000)},
                                     "maass", 24999)
            hecke_tables.append((table, k, p, by_D[D]))
    primes = [p for p in range(2, 520) if arith.is_prime(p)]
    eigen = []
    for f in fields:
        ed = ikeda.synthetic_eigendata(f, 7, 1, primes, random.Random(rng.random()))
        eigen.append((ed, (1, next(x for x in (2, 3, 5, 7) if math.gcd(x, f.D) == 1))))

    def beta(t: Tally) -> None:
        for N in (1, 6):
            run_beta(t, alpha, (50, 200), N, 8)
        for table, k, p, f in hecke_tables:
            run_beta(t, table, (10, 24), 1, k, p, f)

    return [
        Part("salie", run_salie),
        Part("gauss", lambda t: run_gauss(t, fields)),
        Part("norm sums", lambda t: run_norm_sums(t, fields)),
        Part("hecke cosets", lambda t: run_cosets(t, cosets)),
        Part("lift round trip", lambda t: run_lift(t, [by_D[8], by_D[15]])),
        Part("beta identities", beta),
        Part("eigenform twists", lambda t: run_fstar(t, eigen)),
        Part("criterion float D=7",
             lambda t: run_criterion(t, by_D[7], seed, 1, "float")),
    ]


WORKLOADS: dict[str, Callable[[int], list[Part]]] = {
    "criterion-exact": criterion_exact,
    "theta-coherence": theta_coherence,
    "small-identities": small_identities,
}
