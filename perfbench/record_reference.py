"""Record the reference row digests that job.py compares the default seed against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs repetitions 0..REFERENCE_REPS-1 of every workload at seed 0 (the default
``--seed`` of run.py) and writes ``reference.jsonl``: one line per workload
and base_seed, with one digest per CSV row.  Record only from a commit whose
outputs are known good; a repetition past REFERENCE_REPS is checked by
``row_ok`` alone.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import twoptlab

import workloads

REFERENCE_REPS = 16


def main() -> int:
    width = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp, \
            open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as out:
        path = os.path.join(tmp, "rows.csv")
        for name, w in workloads.WORKLOADS.items():
            for rep in range(REFERENCE_REPS):
                seed = workloads.base_seed(0, rep)
                w.run(twoptlab, w.config(twoptlab, seed), width, path)
                with open(path, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()[1:]
                digests = [workloads.row_digest(line) for line in lines]
                out.write(json.dumps({"workload": name, "base_seed": seed, "rows": digests}) + "\n")
                print(f"{name} base_seed {seed}: {len(lines)} rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
