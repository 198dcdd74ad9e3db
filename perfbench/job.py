"""One workload run in a fresh interpreter; started by run.py, one per run.

The process imports twoptlab, builds the workload's config and reports the
time since its parent started it (``--t0``, a CLOCK_MONOTONIC reading, which
is shared by all processes).  Unless ``--setup-only`` is given it then runs
the job in a closed loop with one client: repetition k+1 starts only after
repetition k has finished, and no repetition starts after ``--seconds``.
Every repetition's CSV is checked row by row.  With ``--trace`` it also runs
repetition 0 once under the Tracer and, for sweeps, once more at width 1.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    started = _monotonic()
    import twoptlab
    import_s = _monotonic() - started
    if Path(twoptlab.__file__).resolve().parent != ROOT / "src" / "twoptlab":
        raise SystemExit(f"imported twoptlab from {twoptlab.__file__}, not from this checkout")
    w = workloads.WORKLOADS[args.workload]
    config = w.config(twoptlab, workloads.base_seed(args.seed, 0))
    setup_s = _monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    width = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    csv_path = str(OUT / f"{w.name}.csv")
    columns = w.columns(twoptlab)
    reference = workloads.load_reference(w.name)
    attempted = failed = 0

    def timed(cfg, threads: int, rep: int) -> tuple[float, int]:
        """Run the job once and check its rows; returns (wall seconds, rows)."""
        nonlocal attempted, failed
        t = time.perf_counter()
        rows = w.run(twoptlab, cfg, threads, csv_path)
        wall = time.perf_counter() - t
        expected = w.expected_rows(cfg)
        with open(csv_path, encoding="utf-8") as fh:
            failed += workloads.check_csv(
                fh.read(), columns, expected,
                reference.get(workloads.base_seed(args.seed, rep)),
            )
        attempted += expected
        return wall, rows

    reps = []
    loop_start = time.perf_counter()
    while not reps or time.perf_counter() - loop_start < args.seconds:
        rep = len(reps)
        cfg = config if rep == 0 else w.config(twoptlab, workloads.base_seed(args.seed, rep))
        reps.append(timed(cfg, width, rep))
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    walls = [wall for wall, _ in reps]
    result.update({
        "rows_per_s": sum(rows for _, rows in reps) / sum(walls),
        "peak_rss_mib": peak_kib / 1024.0,
        "reps": len(reps),
        "rows": sum(rows for _, rows in reps),
    })

    if args.trace:
        from tracing import Tracer

        with Tracer(twoptlab) as tracer:
            traced_wall, _ = timed(config, width, 0)
        tracer.write(str(OUT / f"{w.name}.spans.csv"))
        layers = tracer.layer_metrics()
        del tracer  # drop the spans before the width-1 repetition is timed
        speedup = 0.0
        if w.sweep is not None:
            speedup = timed(config, 1, 0)[0] / walls[0]
        layers["harness.run_sweep.speedup_vs_1"] = speedup
        layers["setup.import_s"] = import_s
        layers["trace.overhead_frac"] = traced_wall / walls[0] - 1.0
        result["per_layer"] = layers

    result.update({
        "attempted": attempted,
        "failed": failed,
        "env": {
            "nproc": width,
            "width": width,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
