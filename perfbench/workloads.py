"""Benchmark workloads: the inputs of each job and the check on its output rows.

A job is one call through the public library API on the path the CLI takes:
``run_sweep`` (``twoptlab sweep``) or ``ratio_experiment`` (``twoptlab
ratio``), then ``write_csv``.  Repetition k of a run started with ``--seed s``
passes ``base_seed = SEED_STRIDE * s + k``; the seed reaches the program in no
other way.  Every repetition therefore runs fresh inputs, so a run averages
over several instance sets instead of timing one set again.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

SEED_STRIDE = 1000
RATIO_MIN = 1.0 - 1e-9
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.jsonl"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Exactly one of ``sweep`` (a sweep config file, without ``base_seed``) and
    ``ratio`` (``ratio_experiment`` keyword arguments) is set.
    """

    name: str
    why: str
    sweep: str | None = None
    ratio: dict | None = None

    def config(self, twoptlab, base_seed: int):
        """The job's parsed input: a SweepConfig, or ratio_experiment kwargs."""
        if self.sweep is not None:
            return twoptlab.parse_config(self.sweep + f"base_seed = {base_seed}\n")
        return dict(self.ratio, base_seed=base_seed)

    def run(self, twoptlab, config, threads: int, path: str) -> int:
        """Run the job and write its CSV; returns the number of rows written."""
        if self.sweep is not None:
            rows = twoptlab.run_sweep(config, threads=threads)
        else:
            rows = twoptlab.ratio_experiment(**config)
        twoptlab.write_csv(rows, path, self.columns(twoptlab))
        return len(rows)

    def columns(self, twoptlab) -> list[str]:
        harness = twoptlab.harness
        return harness.ROW_COLUMNS if self.sweep is not None else harness.RATIO_COLUMNS

    def expected_rows(self, config) -> int:
        if self.sweep is not None:
            return len(config.configurations()) * config.seeds
        return len(config["sigma_grid"]) * config["seeds"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-nn-large",
            why="criterion-07 regime: every scan is a full O(n^2) pass over the "
                "distance matrix, about 95% of task time in the three tour scan loops",
            sweep=(
                "experiment = two_opt\n"
                "n = 200, 400, 800\n"
                "sigma = 0\n"
                "metric = l2\n"
                "pivot = first, best, random\n"
                "init = nn\n"
                "origins = uniform\n"
                "ratio = auto\n"
                "seeds = 1\n"
            ),
        ),
        Workload(
            name="ratio-small",
            why="criterion-08 approximation ratio: thousands of run_two_opt calls on "
                "12 points, so fixed per-call cost dominates; serial, bypasses the pool",
            ratio={
                "n": 12,
                "sigma_grid": (0.01, 0.03, 0.1, 0.3, 1.0),
                "restarts": 50,
                "seeds": 10,
            },
        ),
        Workload(
            name="lb-certify",
            why="lower-bound certification: build_long_tour, certify_two_optimality and "
                "mst_length on n=3106, no matrix scans, largest memory footprint",
            sweep=(
                "experiment = lb\n"
                "p = 3\n"
                "sigma = 3e-6\n"
                "seeds = 3\n"
            ),
        ),
        Workload(
            name="sweep-oracle-small",
            why="the exact layer does most of the work (held_karp, min_improvement, "
                "linked pairs) in hundreds of ~20 ms tasks, so pool dispatch cost shows",
            sweep=(
                "experiment = two_opt\n"
                "n = 8, 12, 16\n"
                "sigma = 0.05, 0.5\n"
                "metric = l1, l2, l2sq\n"
                "pivot = first, best, random\n"
                "init = random\n"
                "ratio = exact\n"
                "linked = true\n"
                "delta_min = auto\n"
                "seeds = 3\n"
            ),
        ),
    )
}


def base_seed(seed: int, rep: int) -> int:
    return SEED_STRIDE * seed + rep


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str) -> dict[int, list[str]]:
    """Row digests recorded from a known-good commit: base_seed -> one per row."""
    reference = {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["workload"] == workload:
                reference[entry["base_seed"]] = entry["rows"]
    return reference


def row_ok(row: dict) -> bool:
    """The invariants every output row must meet, whatever the seed."""
    try:
        kind = row["experiment"]
        if kind == "two_opt":
            if row["converged"] != "true":
                return False
            return row["ratio_kind"] != "exact" or float(row["ratio"]) >= RATIO_MIN
        if kind == "ratio":
            return float(row["ratio"]) >= RATIO_MIN
        if kind == "lb":
            return row["container_ok"] != "true" or row["certified"] == "true"
    except (KeyError, ValueError):
        return False
    return False


def check_csv(text: str, columns, expected: int, reference: list[str] | None) -> int:
    """Number of failed rows in one job's CSV output.

    A row fails when it breaks ``row_ok`` or differs byte for byte from the
    recorded reference row (if one is given).  A wrong header or row count
    fails every row.
    """
    lines = text.splitlines()
    if len(lines) != expected + 1 or lines[0] != ",".join(columns):
        return expected
    failed = 0
    for k, (line, row) in enumerate(zip(lines[1:], csv.DictReader(lines))):
        differs = reference is not None and (k >= len(reference) or row_digest(line) != reference[k])
        failed += differs or not row_ok(row)
    return failed
