"""Run a hermlift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload criterion-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each metric with its unit

Each repetition is a fresh interpreter (perfbench/worker.py) and one runs at
a time; a run repeats its workload until --seconds have passed.  The last
line of a single-workload run is one JSON object with the keys correct,
attempted, failed and metrics: BENCHMARK.json's end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1 (each traced repetition
follows an untraced one, for the tracing overhead).  The line before it
records where the numbers come from.

Exit status: 0 when every identity holds and every repetition evaluated the
count recorded in perfbench/counts.json; 1 otherwise; 2 when the checkout
holds no hermlift source to benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src" / "hermlift"
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # a run, all its repetitions included, ends within this


class BenchError(Exception):
    """A repetition crashed or ran out of time; the run has no result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repetition(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(rep: dict, recorded: int) -> tuple[int, int]:
    """(attempted, failed) for one repetition: identities that evaluated
    false or raised fail, and so does each identity by which the evaluated
    count differs from the recorded one."""
    return max(recorded, rep["evaluated"]), rep["failed"] + abs(recorded - rep["evaluated"])


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git one."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Repeat the workload for `seconds`; return (result, provenance)."""
    b = spec()
    recorded = json.loads((HERE / "counts.json").read_text())[workload]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(repetition(workload, seed, False, deadline))
        if trace:
            traced.append(repetition(workload, seed, True, deadline))
        if time.monotonic() - start >= seconds:
            break
    reps = plain + traced

    attempted = failed = 0
    for rep in reps:
        a, f = gate(rep, recorded)
        attempted += a
        failed += f
        for w in rep["witnesses"]:
            print(f"FAIL {workload}: {w}", file=sys.stderr)
    if failed:
        print(f"FAIL {workload}: {failed} of {attempted} identities failed or are missing "
              f"(recorded count {recorded}, evaluated {sorted({r['evaluated'] for r in reps})})",
              file=sys.stderr)

    if trace:
        values = {m["name"]: statistics.median(r["layers"].get(m["name"], 0) for r in traced)
                  for m in b["per_layer"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        units = {m["name"]: m["unit"] for m in b["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_share": 1 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in b["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "nproc": os.cpu_count(),
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"provenance": provenance, "result": result, "repetitions": reps}, indent=1))
    return result, provenance


def main() -> int:
    b = spec()
    names = [w["name"] for w in b["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=b["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no hermlift source at {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile the package once, outside every timed region
    compileall.compile_dir(str(SRC), quiet=1)

    try:
        if args.workload != "all":
            result, provenance = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("provenance " + json.dumps(provenance))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for name in names:
            result, provenance = run_workload(name, args.seed, args.seconds, bool(args.trace))
            ok = ok and result["correct"]
            print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} provenance={json.dumps(provenance)}")
            for metric, v in result["metrics"].items():
                print(f"{name:18s} {metric:36s} {v['value']!s:>22} {v['unit']}")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
