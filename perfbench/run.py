"""twoptlab benchmark: one seeded workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file.  Each run sets up the workload in SETUP_RUNS fresh
interpreters and reports the median set-up time; the last of them goes on to
run the job in a closed loop for S seconds (see job.py).  The sweep width is
pinned to the number of usable CPUs and ``TWOPT_THREADS`` is removed from the
child environment, so a developer's shell cannot change the width measured.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json; both print the environment and the row check
first, and end with one JSON line: correct, attempted, failed, metrics.
``attempted`` and ``failed`` count output rows, so failed / attempted is the
share of rows that failed the check (failed_frac).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170.0

END_TO_END = [("rows_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run job.py in a fresh interpreter and return its JSON result."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "job.py"), *args, "--t0", repr(t0)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"job.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "twoptlab" / "__init__.py").is_file():
        print(f"error: no twoptlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = dict(os.environ)
    env.pop("TWOPT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_child(common + ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    job = _child(common + ["--seconds", str(args.seconds)] + ["--trace"] * args.trace, env, deadline)
    setups.append(job["setup_s"])

    env_info = dict(job["env"], commit=_commit())
    print("# env " + json.dumps(env_info))
    print(f"# workload {args.workload} seed {args.seed} base_seed "
          f"{workloads.base_seed(args.seed, 0)}..{workloads.base_seed(args.seed, job['reps'] - 1)} "
          f"reps {job['reps']} rows {job['rows']}")
    failed_frac = job["failed"] / job["attempted"]
    print(f"failed_frac {failed_frac:.6g} frac ({job['failed']}/{job['attempted']} rows)")

    if args.trace:
        layer = job["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_metrics()}
    else:
        values = {"rows_per_s": job["rows_per_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mib": job["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": job["failed"] == 0,
        "attempted": job["attempted"],
        "failed": job["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
