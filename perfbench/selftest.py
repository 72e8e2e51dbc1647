"""Shows that the benchmark's correctness gate and tracer can fail:

    python3 perfbench/selftest.py

1. One wrong identity is injected (the norm sum at D=8, N=3, t=1 compared
   against chi(N)*N + 1): it must count as failed, with its witness, and
   give a failed share above 0 (a pass share below 1).
2. A repetition that evaluated fewer identities than recorded must fail by
   the difference.
3. A traced run must produce every per-layer metric BENCHMARK.json names,
   and its module self times plus the unattributed remainder must add up to
   its wall time.

Exits with status 1 and a message on the first check that does not hold.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402
from hermlift.quadfield import QuadField  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

FIELDS = [QuadField(7), QuadField(8)]
FAULT = (8, 3, 1)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def injected_norm_sums() -> workloads.Tally:
    target = workloads.norm_sum_target

    def wrong(f, N, t):
        return target(f, N, t) + ((f.D, N, t) == FAULT)

    workloads.norm_sum_target = wrong
    try:
        tally = workloads.Tally()
        workloads.run_norm_sums(tally, FIELDS)
    finally:
        workloads.norm_sum_target = target
    return tally


def main() -> None:
    clean = workloads.Tally()
    workloads.run_norm_sums(clean, FIELDS)
    recorded = clean.evaluated
    expect(clean.failed == 0 and recorded > 0, f"{recorded} clean norm-sum identities pass")

    bad = injected_norm_sums()
    attempted, failed = run.gate({"evaluated": bad.evaluated, "failed": bad.failed}, recorded)
    expect(failed == 1 and failed / attempted > 0, "the injected wrong identity fails the gate")
    expect(bad.witnesses == [str(("norm_sum",) + FAULT)], "its witness names (D, N, t)")

    attempted, failed = run.gate({"evaluated": recorded - 2, "failed": 0}, recorded)
    expect((attempted, failed) == (recorded, 2), "two missing identities count as two failures")

    tracer = Tracer()
    tracer.install()
    tally = workloads.Tally()
    t0 = time.perf_counter()
    workloads.run_criterion(tally, QuadField(3), 0, 1, "exact")
    workloads.run_norm_sums(tally, FIELDS[:1])
    wall = time.perf_counter() - t0
    layers = tracer.metrics(wall)
    layers.update(tally.counts)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = names - set(layers) - {"trace.overhead_s", "hecke.beta_checked"}
    expect(not missing, f"the traced run yields every per-layer metric (missing: {sorted(missing)})")
    parts = sum(layers[f"{m}.self_s"] for m in MODULES) + layers["trace.unattributed_s"]
    expect(abs(parts - wall) < 1e-6 * max(1.0, wall), "module self times + unattributed = wall time")


if __name__ == "__main__":
    main()
