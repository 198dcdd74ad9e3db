"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 [--workload NAME ...] [--trace 1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with
``run_seconds`` from BENCHMARK.json, and prints for every metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  ``--out`` also writes the summary and every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")

    summary = {}
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(dict(result, seed=seed))
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "values": values,
            }
            print(f"{name:20s} {metric:45s} median {median:<12.6g} {first['unit']:6s} "
                  f"spread {metrics[metric]['spread']:.4f}")
        summary[name] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
