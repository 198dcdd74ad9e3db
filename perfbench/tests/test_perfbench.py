"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import twoptlab  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run("--workload", "ratio-small", "--seed", "0", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in SPEC[section]]
    assert "failed_frac 0 " in proc.stdout


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "ratio-small", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _job_csv(tmp_path, name: str, seed: int) -> tuple[str, object, list[str]]:
    w = workloads.WORKLOADS[name]
    config = w.config(twoptlab, seed)
    path = tmp_path / "rows.csv"
    w.run(twoptlab, config, 2, str(path))
    return path.read_text(encoding="utf-8"), config, w.columns(twoptlab)


def test_altered_row_is_counted_as_failed(tmp_path):
    text, config, columns = _job_csv(tmp_path, "ratio-small", 0)
    expected = workloads.WORKLOADS["ratio-small"].expected_rows(config)
    reference = workloads.load_reference("ratio-small")[0]
    assert workloads.check_csv(text, columns, expected, reference) == 0

    lines = text.splitlines()
    ratio_at = columns.index("ratio")
    cells = lines[3].split(",")
    cells[ratio_at] = repr(float(cells[ratio_at]) * (1 + 1e-15) + 1e-15)
    altered = "\n".join(lines[:3] + [",".join(cells)] + lines[4:])
    assert workloads.check_csv(altered, columns, expected, reference) == 1
    assert workloads.check_csv(altered, columns, expected, None) == 0

    cells[ratio_at] = "0.5"
    below_one = "\n".join(lines[:3] + [",".join(cells)] + lines[4:])
    assert workloads.check_csv(below_one, columns, expected, None) == 1
    assert workloads.check_csv("\n".join(lines[:-1]), columns, expected, None) == expected


def _snapshot() -> dict:
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "twoptlab" or key.startswith("twoptlab.")
        for attr, value in vars(module).items()
    }


_SMALL_SWEEPS = (
    "experiment = two_opt\nn = 8, 14\nsigma = 0.1\nmetric = l1, l2\npivot = first, random\n"
    "init = random, nn\nratio = exact\nlinked = true\nseeds = 2\nbase_seed = 5\n",
    "experiment = lb\np = 3\nt = 1\nsigma = 3e-6\nseeds = 2\nbase_seed = 5\n",
)


def _traced_counts(tmp_path) -> dict:
    with tracing.Tracer(twoptlab) as tracer:
        for k, text in enumerate(_SMALL_SWEEPS):
            rows = twoptlab.run_sweep(twoptlab.parse_config(text), threads=2)
            twoptlab.write_csv(rows, str(tmp_path / f"{k}.csv"))
    roots = {s.name for s in tracer.spans if s.parent is None}
    assert roots == {"harness.run_sweep", "harness.write_csv"}
    metrics = tracer.layer_metrics()
    return {name: value for name, value in metrics.items()
            if name.endswith((".calls", ".iterations", ".scans", ".pairs", ".mbytes", ".bytes"))}


def test_tracer_restores_every_wrapped_function():
    before = _snapshot()
    with pytest.raises(ValueError), tracing.Tracer(twoptlab):
        assert twoptlab.harness.run_two_opt is not before[("twoptlab.harness", "run_two_opt")]
        assert twoptlab.layered.vec_dist is not before[("twoptlab.layered", "vec_dist")]
        assert twoptlab.run_sweep is not before[("twoptlab", "run_sweep")]
        twoptlab.run_sweep(twoptlab.SweepConfig(n=(3,), sigma=(0.0,)), threads=1)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert first == second
    for name in ("tour.run_two_opt.calls", "tour.run_two_opt.iterations", "geometry.vec_dist.calls",
                 "tour.certify_two_optimality.pairs", "exact.held_karp.calls",
                 "tour.count_disjoint_linked_pairs.calls", "layered.build_long_tour.calls"):
        assert first[name] > 0, name
