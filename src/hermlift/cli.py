"""Command-line driver: verification campaigns, coefficient emission, and
reproducible JSON reports.

    hermlift verify --D 3 --N 1 --mode criterion
    hermlift verify --config campaign.json --out reports/
    hermlift lift --D 4 --N 3 --k 8 --input g.json --upto 50
    hermlift theta-matrix --D 3 --sigma 0 -1 1 0
    hermlift gauss --D 15
    hermlift hecke-reps --D 3 --p 2 --N 1
    hermlift ikeda --D 7 --k 8 --ell 2 --bound 120

Every subcommand emits a JSON report (stdout, or --out file/directory).
Exit status: 0 all checks passed, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

from . import criterion as crit
from . import ikeda as ik
from .arith import divisors, is_prime, prime_divisors
from .charsums import check_closed_form, norm_sum_check, salie_check
from .hecke import TableRangeError, _check_coset_prime, coset_reps, verify_reps_distinct
from .lift import HermitianCoeffKey, maass_coeff, special_jacobi_alpha
from .plusform import QExpansion, eisenstein_star
from .quadfield import QuadField, chi_component
from .thetamat import Mat2Z, matrices_equal, mat_mul, theta_matrix, theta_matrix_closed

MODES = ("criterion", "theta", "salie", "gauss", "normsum", "hecke", "ikeda")


class UsageError(Exception):
    pass


def _field(D: int) -> QuadField:
    try:
        return QuadField(D)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _check_level(D: int, N: int) -> None:
    if N < 1 or math.gcd(D, N) != 1:
        raise UsageError(f"N = {N} must be positive and coprime to D = {D}")


def _check_weight(k: int, least: int) -> None:
    if k % 2 or k < least:
        raise UsageError(f"k = {k} must be even and at least {least}")


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # a missing file, or not JSON
        raise UsageError(f"cannot read {path}: {e}") from e


def _ints(cfg: dict, key: str, default: list) -> list:
    """cfg[key], or default when absent: a non-empty list of integers (no bool, no float)."""
    value = cfg.get(key, default)
    if not (isinstance(value, list) and value and all(type(x) is int for x in value)):
        raise UsageError(f"{key!r} must be a non-empty list of integers")
    return value


def _emit(report: dict, out: str | None, name: str) -> None:
    text = json.dumps(report, separators=(",", ":"), default=str)
    if out is None:
        print(text)
        return
    path = Path(out)
    if path.is_dir() or out.endswith("/"):
        path.mkdir(parents=True, exist_ok=True)
        path = path / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# the individual verification modes: each returns its own report fields and
# its failures; run_mode adds the keys common to every report


def run_mode(mode: str, D: int, N: int, *, seed: int = 0,
             arithmetic: str = "exact") -> dict:
    field = _field(D)
    _check_level(D, N)
    reports = {
        "criterion": lambda: _report_criterion(field, N, seed, arithmetic),
        "theta": lambda: _report_theta(field, seed),
        "salie": lambda: _report_salie(field),
        "gauss": lambda: _report_gauss(field),
        "normsum": lambda: _report_normsum(field),
        "hecke": lambda: _report_hecke(field, N),
        "ikeda": lambda: _report_ikeda(field, seed),
    }
    if mode not in reports:
        raise UsageError(f"mode must be one of {', '.join(MODES)}")
    t0 = time.monotonic()
    rep = {"mode": mode, "D": D, "N": N, "seed": seed, **reports[mode]()}
    rep["ok"] = not rep["failures"]
    rep["wall_time"] = time.monotonic() - t0
    return rep


def _report_criterion(field: QuadField, N: int, seed: int, arithmetic: str) -> dict:
    rep = crit.verify_criterion(field, N, seed=seed, arithmetic=arithmetic)
    return {"arithmetic": arithmetic, **rep}  # run_mode replaces its wall_time


def _report_theta(field: QuadField, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    checked = 0
    # closed form against the defining sum on the divisor-c sweep
    for sigma in crit.sweep_sigmas(field):
        if sigma.c <= 0 or field.D % sigma.c != 0:
            continue
        checked += 1
        if not matrices_equal(theta_matrix(field, sigma),
                              theta_matrix_closed(field, sigma)):
            failures.append({"check": "closed", "sigma": list(sigma.entries())})
    # homomorphism M(g1 g2) = M(g1) M(g2) on random pairs
    for _ in range(10):
        g1 = crit.random_gamma0(field, rng)
        g2 = crit.random_gamma0(field, rng)
        checked += 1
        lhs = theta_matrix(field, g1 * g2)
        rhs = mat_mul(theta_matrix(field, g1), theta_matrix(field, g2))
        if not matrices_equal(lhs, rhs):
            failures.append({
                "check": "homomorphism",
                "g1": list(g1.entries()), "g2": list(g2.entries()),
            })
    return {"checked": checked, "failures": failures}


def _report_salie(field: QuadField) -> dict:
    failures = []
    checked = 0
    primes = [p for p in prime_divisors(field.D) if p % 2 == 1]
    for p in primes:
        for x in range(p):
            for y in range(p):
                for z in range(1, p):
                    checked += 1
                    _, _, ok = salie_check(p, x, y, z)
                    if not ok:
                        failures.append({"p": p, "x": x, "y": y, "z": z})
    return {"primes": primes, "checked": checked, "failures": failures}


def _report_gauss(field: QuadField) -> dict:
    failures = []
    checked = []
    for m in divisors(field.D):
        if m == 1 or math.gcd(m, field.D // m) != 1:
            continue
        checked.append(m)
        if not check_closed_form(chi_component(field, m)):
            failures.append({"m": m})
    return {"components": checked, "failures": failures}


def _report_normsum(field: QuadField) -> dict:
    failures = []
    checked = 0
    for N in range(1, 16):
        if math.gcd(N, field.D) != 1:
            continue
        for t in range(N):
            if math.gcd(t, N) != 1:
                continue
            checked += 1
            if not norm_sum_check(field, N, t):
                failures.append({"N": N, "t": t})
    return {"checked": checked, "failures": failures}


def _inert_primes(field: QuadField, N: int, count: int) -> list[int]:
    """The first count primes that are inert in the field and prime to N."""
    out, p = [], 2
    while len(out) < count:
        if N % p and is_prime(p) and field.chi(p) == -1:
            out.append(p)
        p += 1
    return out


def _report_hecke(field: QuadField, N: int) -> dict:
    failures, cases = [], []
    for p in _inert_primes(field, N, 2):
        want = 1 + p + p**3 + p**4
        try:  # builds and checks the families: unitarity, level and the count
            distinct = verify_reps_distinct(field, p, N)
        except OverflowError as e:
            raise UsageError(str(e)) from e
        except (ValueError, AssertionError) as e:  # a faulty family
            failures.append({"p": p, "check": str(e)})
            continue
        cases.append({"p": p, "count": want, "expected": want, "distinct": distinct})
        if not distinct:
            failures.append({"p": p, "check": "distinct"})
    return {"cases": cases, "failures": failures}


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if is_prime(p)]


def _report_ikeda(field: QuadField, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    checked = 0
    primes = _primes_below(260)
    for trial in range(3):
        ed = ik.synthetic_eigendata(field, 7, 1, primes, rng)
        for ell in (1, 2, 5):
            if math.gcd(ell, field.D) != 1:
                continue
            # fstar_coeff cross-checks subset sum vs closed form internally
            try:
                for M in range(1, 120):
                    ik.fstar_coeff(ed, ell, M)
                if not ik.fstar_plus_check(ed, ell, 120):
                    failures.append({"trial": trial, "ell": ell, "check": "plus"})
            except AssertionError as e:
                failures.append({"trial": trial, "ell": ell, "check": str(e)})
            checked += 1
    return {"checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    if args.config:
        cfg = _read_json(args.config)
        if not isinstance(cfg, dict):
            raise UsageError(f"{args.config} must hold a JSON object")
        discs, levels = _ints(cfg, "discriminants", []), _ints(cfg, "levels", [1])
        modes = cfg.get("modes", ["criterion"])
        if not (isinstance(modes, list) and modes and all(m in MODES for m in modes)):
            raise UsageError(f"'modes' must be a non-empty list of {', '.join(MODES)}")
        arithmetic = cfg.get("arithmetic", args.arithmetic)
        out = cfg.get("output_dir", args.out)
        if out is not None and not isinstance(out, str):
            raise UsageError("'output_dir' must be a string")
    else:
        if args.D is None:
            raise UsageError("--D or --config is required")
        discs, levels = [args.D], [args.N]
        modes, arithmetic, out = [args.mode], args.arithmetic, args.out
    if arithmetic not in ("exact", "float"):
        raise UsageError("arithmetic must be 'exact' or 'float'")
    tasks = [(D, N) for D in discs for N in levels]
    for D, N in tasks:  # every task is checked before the first one runs
        _check_level(_field(D).D, N)
    all_ok = True
    for D, N in tasks:
        for mode in modes:
            rep = run_mode(mode, D, N, seed=args.seed, arithmetic=arithmetic)
            all_ok = all_ok and rep["ok"]
            _emit(rep, out, f"{mode}-D{D}-N{N}")
            status = "pass" if rep["ok"] else "FAIL"
            print(f"{mode} D={D} N={N}: {status}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_lift(args) -> int:
    field = _field(args.D)
    _check_level(args.D, args.N)
    _check_weight(args.k, 4)
    if args.input:
        try:  # exact coefficients only: ints, "p/q" strings or null
            g = QExpansion.from_dict(_read_json(args.input))
            if (g.weight, g.disc) != (args.k - 1, args.D):
                raise UsageError(f"{args.input} has weight {g.weight} and disc {g.disc}, but "
                                 f"--k {args.k} --D {args.D} needs {args.k - 1} and {args.D}")
            alpha = special_jacobi_alpha(field, args.N, g)
        except (KeyError, TypeError, ValueError) as e:
            raise UsageError(f"{args.input} is not an exact plus-form expansion: {e!r}") from e
    else:
        g = eisenstein_star(field, args.k, args.upto * args.upto * field.D + 1)
        alpha = special_jacobi_alpha(field, args.N, g)
    table = []
    for ell in range(0, args.upto + 1):
        for m in range(0, args.upto + 1):
            for t1 in range(-args.upto, args.upto + 1):
                for t2 in range(-args.upto, args.upto + 1):
                    if (ell, m, t1, t2) == (0, 0, 0, 0):
                        continue
                    try:
                        key = HermitianCoeffKey(field, ell, m, t1, t2)
                        c = maass_coeff(field, args.N, args.k, alpha, key)
                    except (ValueError, TableRangeError):
                        # T not >= 0, an unspecified alpha index, or an index
                        # beyond the supplied expansion
                        continue
                    table.append({"ell": ell, "m": m, "t1": t1, "t2": t2,
                                  "Ddet": key.ddet, "coeff": repr(c)})
    rep = {"mode": "lift", "D": args.D, "N": args.N, "k": args.k,
           "entries": table, "ok": True}
    _emit(rep, args.out, f"lift-D{args.D}-N{args.N}-k{args.k}")
    return 0


def cmd_theta_matrix(args) -> int:
    field = _field(args.D)
    a, b, c, d = args.sigma
    sigma = Mat2Z(a, b, c, d)
    if sigma.det() != 1:
        raise UsageError("sigma must lie in SL2(Z)")
    try:
        M = theta_matrix(field, sigma)
    except OverflowError as e:  # the lattice sum is too large to build
        raise UsageError(str(e)) from e
    rep = {
        "mode": "theta-matrix", "D": args.D, "sigma": [a, b, c, d],
        "matrix": [[repr(e) for e in row] for row in M],
        "ok": True,
    }
    _emit(rep, args.out, f"theta-matrix-D{args.D}")
    return 0


def cmd_gauss(args) -> int:
    rep = run_mode("gauss", args.D, 1)
    _emit(rep, args.out, f"gauss-D{args.D}")
    return 0 if rep["ok"] else 1


def cmd_hecke_reps(args) -> int:
    field = _field(args.D)
    _check_level(args.D, args.N)
    try:
        _check_coset_prime(field, args.p, args.N)
    except (ValueError, OverflowError) as e:  # p not an inert prime prime to N, or too large
        raise UsageError(str(e)) from e
    rep = {"mode": "hecke-reps", "D": args.D, "p": args.p, "N": args.N}
    try:  # builds and checks the families: unitarity, level and the count
        reps = coset_reps(field, args.p, args.N)
    except (ValueError, AssertionError) as e:  # a faulty family
        rep.update(failures=[{"p": args.p, "check": str(e)}], ok=False)
    else:
        rep.update(count=len(reps), expected=1 + args.p + args.p**3 + args.p**4,
                   reps=reps.tolist(), ok=True)
    _emit(rep, args.out, f"hecke-reps-D{args.D}-p{args.p}-N{args.N}")
    return 0 if rep["ok"] else 1


def cmd_ikeda(args) -> int:
    field = _field(args.D)
    _check_weight(args.k, 2)
    if math.gcd(args.ell, args.D) != 1:
        raise UsageError("ell must be coprime to D")
    rng = random.Random(args.seed)
    primes = _primes_below(max(260, args.bound + 10))
    ed = ik.synthetic_eigendata(field, args.k - 1, 1, primes, rng)
    coeffs = {}
    for M in range(1, args.bound + 1):
        coeffs[M] = repr(ik.fstar_coeff(ed, args.ell, M))
    ok = ik.fstar_plus_check(ed, args.ell, args.bound)
    rep = {"mode": "ikeda", "D": args.D, "k": args.k, "ell": args.ell,
           "seed": args.seed, "plus": ok, "coeffs": coeffs, "ok": ok}
    _emit(rep, args.out, f"ikeda-D{args.D}-ell{args.ell}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermlift",
        description="Exact verification campaigns for Hermitian Maass lift data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification mode or campaign")
    v.add_argument("--D", type=int, help="positive integer with -D fundamental")
    v.add_argument("--N", type=int, default=1, help="level, coprime to D")
    v.add_argument("--mode", default="criterion", choices=MODES)
    v.add_argument("--arithmetic", default="exact", choices=("exact", "float"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--config", help="campaign JSON file")
    v.add_argument("--out", help="report file or directory")
    v.set_defaults(fn=cmd_verify)

    l = sub.add_parser("lift", help="emit a Hermitian Maass coefficient table")
    l.add_argument("--D", type=int, required=True)
    l.add_argument("--N", type=int, default=1)
    l.add_argument("--k", type=int, default=8, help="even weight of the lift")
    l.add_argument("--input", help="plus-form q-expansion JSON (default: Eisenstein)")
    l.add_argument("--upto", type=int, default=4, help="entry range of T")
    l.add_argument("--out")
    l.set_defaults(fn=cmd_lift)

    t = sub.add_parser("theta-matrix", help="print a theta transformation matrix")
    t.add_argument("--D", type=int, required=True)
    t.add_argument("--sigma", type=int, nargs=4, metavar=("A", "B", "C", "DD"),
                   default=[0, -1, 1, 0])
    t.add_argument("--out")
    t.set_defaults(fn=cmd_theta_matrix)

    g = sub.add_parser("gauss", help="check Gauss sum closed forms for D")
    g.add_argument("--D", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gauss)

    h = sub.add_parser("hecke-reps", help="emit inert Hecke coset representatives")
    h.add_argument("--D", type=int, required=True)
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--N", type=int, default=1)
    h.add_argument("--out")
    h.set_defaults(fn=cmd_hecke_reps)

    i = sub.add_parser("ikeda", help="eigenform twist combinatorics report")
    i.add_argument("--D", type=int, required=True)
    i.add_argument("--k", type=int, default=8, help="even weight (form has k-1)")
    i.add_argument("--ell", type=int, default=1)
    i.add_argument("--bound", type=int, default=100)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--out")
    i.set_defaults(fn=cmd_ikeda)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
