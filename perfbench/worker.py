"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <spawn time>

<spawn time> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time includes
interpreter start.  Prints one JSON line with the repetition's numbers.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    spawned = float(sys.argv[4])
    import hermlift
    import numpy

    if Path(hermlift.__file__).resolve().parent != ROOT / "src" / "hermlift":
        raise SystemExit(f"hermlift imported from {hermlift.__file__}, not from this checkout")
    from workloads import WORKLOADS, Tally

    parts = WORKLOADS[workload](seed)
    setup_s = time.monotonic() - spawned

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tally = Tally()
    t0 = time.perf_counter()
    for part in parts:
        try:
            part.run(tally)
        except Exception as exc:  # the part's unevaluated identities fail the count check
            tally.fail(f"{part.name}: {exc!r}", 0)
    wall_s = time.perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evaluated": tally.evaluated,
        "failed": tally.failed,
        "witnesses": tally.witnesses,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = tracer.metrics(wall_s)
        layers.update(tally.counts)
        out["layers"] = layers
        tracer.save(ROOT / ".perfbench" / f"spans-{workload}.npz")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
