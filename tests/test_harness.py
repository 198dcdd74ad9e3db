"""Sweep configs, deterministic execution, CSV output, fits, verify suites."""

import concurrent.futures
import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from test_cli import _checkout_env
from twoptlab import harness
from twoptlab.harness import (
    ROW_COLUMNS,
    SweepConfig,
    parse_config,
    ratio_experiment,
    replay_row,
    run_sweep,
    scaling_fit,
    task_seed,
    verify_suite,
    write_csv,
)


# ---------------------------------------------------------------------------
# config parsing


CONFIG_TEXT = """
# comment line
experiment = two_opt
n = 8, 10, 12      # trailing comment
sigma = 0.01, 0.1
metric = l1, l2
pivot = best
seeds = 5
base_seed = 17
linked = true
"""


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.n == (8, 10, 12)
    assert cfg.sigma == (0.01, 0.1)
    assert cfg.metric == ("l1", "l2")
    assert cfg.pivot == ("best",)
    assert cfg.init == ("random",)  # default untouched
    assert cfg.seeds == 5 and cfg.base_seed == 17
    assert cfg.linked is True
    assert cfg.eps == 1e-12
    # 3 n * 2 sigma * 2 metrics * 1 pivot * 1 init
    assert len(cfg.configurations()) == 12


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("n = 8\nsigma = 0.1\nwidgets = 3\n")


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ValueError, match="repeated"):
        parse_config("n = 8\nn = 9\nsigma = 0.1\n")


def test_parse_config_rejects_non_assignment_line():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("n = 8\nsigma 0.1\n")


def test_parse_config_requires_n_and_sigma():
    with pytest.raises(ValueError, match="needs n"):
        parse_config("sigma = 0.1\n")
    with pytest.raises(ValueError, match="needs sigma"):
        parse_config("n = 8\n")


def test_parse_config_validates_values():
    with pytest.raises(ValueError):
        parse_config("n = 3\nsigma = 0.1\n")  # n >= 4
    with pytest.raises(ValueError):
        parse_config("n = 8\nsigma = 0.1\npivot = sometimes\n")
    with pytest.raises(ValueError, match="true or false"):
        parse_config("n = 8\nsigma = 0.1\nlinked = yes\n")
    with pytest.raises(ValueError, match="exact"):
        parse_config("n = 30\nsigma = 0.1\nratio = exact\n")
    with pytest.raises(ValueError, match="empty list"):
        parse_config("n = ,\nsigma = 0.1\n")
    for eps in ("-1", "0", "nan", "inf"):
        with pytest.raises(ValueError, match="eps"):
            parse_config(f"n = 8\nsigma = 0.1\neps = {eps}\n")
    with pytest.raises(ValueError, match="max_iter"):
        parse_config("n = 8\nsigma = 0.1\nmax_iter = -1\n")
    # caught at parse time, not in the first row that perturbs
    for sigma, message in [("nan", "finite"), ("inf", "finite"), ("-inf", "finite"),
                           ("2", "exceeds"), ("-1", "non-negative")]:
        with pytest.raises(ValueError, match=f"sigma.*{message}"):
            parse_config(f"n = 8\nsigma = 0.1, {sigma}\n")
    with pytest.raises(ValueError, match="dim"):
        parse_config("n = 8\nsigma = 0.1\ndim = 0\n")
    # point sets over the coordinate budget, refused before any is allocated
    for size in ("n = 8\ndim = 100000000\n", "n = 8, 100000000\n"):
        with pytest.raises(ValueError, match="coordinates, over 16777216"):
            parse_config(f"{size}sigma = 0.1\n")
    # keys the experiment would silently ignore
    with pytest.raises(ValueError, match=r"\['metric', 'n', 'pivot'\]"):
        parse_config("experiment = lb\np = 3\nsigma = 1e-4\nmetric = l1\npivot = best\nn = 7\n")
    with pytest.raises(ValueError, match=r"\['p', 't'\]"):
        parse_config("n = 8\nsigma = 0.1\np = 3\nt = 1\n")
    # an unread key at its default value leaves the config as it was
    with pytest.raises(ValueError, match=r"lb sweeps do not read the config keys \['metric'\]"):
        parse_config("experiment = lb\np = 3\nt = 1\nsigma = 1e-4\nmetric = l2\n")
    for text, message in [
        ("experiment = tsp\nn = 8\nsigma = 0.1\n", "unknown experiment 'tsp'"),
        ("n = 8\nsigma = 0.1\nseeds = 0\n", "seeds must be >= 1"),
        ("n = 8\nsigma = 0.1\nbase_seed = -1\n", "base_seed must be >= 0"),
        ("n = 8\nsigma = 0.1\norigins = sphere\n", "unknown origins rule 'sphere'"),
        ("n = 8\nsigma = 0.1\nratio = maybe\n", "unknown ratio mode 'maybe'"),
        ("n = 8\nsigma = 0.1\ndelta_min = often\n", "unknown delta_min mode 'often'"),
        ("experiment = lb\np = 3\n", "lb sweep needs sigma"),
        # a value that does not parse names its line and key
        ("n = 8.5\nsigma = 0.1\n", "config line 1: key 'n': invalid literal for int"),
        ("n = 8\nsigma = 0.1\nseeds = 2.0\n", "config line 3: key 'seeds': invalid literal"),
        ("n = 8\nsigma = abc\n", "config line 2: key 'sigma': could not convert"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)


@pytest.mark.parametrize("cfg", [
    SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), metric=("l1",), n=(7,),
                pivot=("best",)),
    SweepConfig(n=(8,), sigma=(0.1,), p=3, t=1),
], ids=["lb", "two_opt"])
def test_code_built_config_rejects_unread_fields(cfg):
    # a config built in code is held to the parse-time rule: a field the
    # experiment does not read must keep its default
    with pytest.raises(ValueError, match="do not read"):
        run_sweep(cfg)
    with pytest.raises(ValueError, match="do not read"):
        replay_row(cfg, 0)


def test_code_built_config_with_unread_fields_at_default_runs():
    # unread fields passed at their defaults are not an error
    cfg = SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), metric=("l2",),
                      pivot=("first",))
    assert replay_row(cfg, 0)["n"] == 762


def test_lb_config_needs_p():
    with pytest.raises(ValueError, match="needs p"):
        parse_config("experiment = lb\nsigma = 0.0001\n")
    cfg = parse_config("experiment = lb\np = 3\nt = 1\nsigma = 0.0001\n")
    assert cfg.configurations() == [{"p": 3, "t": 1, "sigma": 0.0001}]


def test_lb_config_checks_construction_params():
    # (p, sigma, t) must resolve for every sigma before any row runs
    with pytest.raises(ValueError, match="p must be"):
        parse_config("experiment = lb\np = 4\nsigma = 0.0001\n")
    with pytest.raises(ValueError, match="too large"):
        parse_config("experiment = lb\np = 3\nsigma = 0.0001, 0.1\n")
    with pytest.raises(ValueError, match="sigma"):
        parse_config("experiment = lb\np = 3\nt = 1\nsigma = nan\n")
    with pytest.raises(ValueError, match="too large"):
        parse_config("experiment = lb\np = 101\nsigma = 1e-4\n")
    # p = 5 pads to p^10 points: over the size budget at every depth
    for extra in ("sigma = 1e-8\n", "t = 1\nsigma = 0\n"):
        with pytest.raises(ValueError, match="points"):
            parse_config("experiment = lb\np = 5\n" + extra)


# ---------------------------------------------------------------------------
# seeding


def test_task_seed_deterministic_and_distinct():
    assert task_seed(0, 0, 0) == task_seed(0, 0, 0)
    seen = {task_seed(b, c, s) for b in range(3) for c in range(3) for s in range(3)}
    assert len(seen) == 27
    assert all(0 <= v < 2**64 for v in seen)


# ---------------------------------------------------------------------------
# sweeps


def _small_cfg(**overrides) -> SweepConfig:
    cfg = SweepConfig(n=(8, 10, 12), sigma=(0.01, 0.1), seeds=5, base_seed=3)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_run_sweep_single_task():
    cfg = SweepConfig(n=(7,), sigma=(0.2,), seeds=1)
    rows = run_sweep(cfg, threads=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["row_id"] == 0
    assert row["experiment"] == "two_opt"
    assert row["n"] == 7
    assert row["converged"] is True
    assert row["ratio_kind"] == "exact"  # auto mode, n <= 14
    assert row["ratio"] >= 1.0 - 1e-9
    assert set(row) <= set(ROW_COLUMNS)


def test_run_sweep_grid_shape_and_ratios():
    rows = run_sweep(_small_cfg(), threads=2)
    assert len(rows) == 30
    assert [r["row_id"] for r in rows] == list(range(30))
    for row in rows:
        assert row["ratio"] >= 1.0 - 1e-9
        assert row["final_length"] <= row["initial_length"] + 1e-9
        # n <= 12 here, so auto delta_min kicks in and bounds the run
        assert row["iterations"] <= row["iter_bound"]


@pytest.mark.parametrize("overrides, filled, empty", [
    ({"n": (8,), "ratio": "none"}, {"delta_min", "iter_bound"}, {"ratio", "ratio_kind"}),
    ({"n": (16,), "delta_min": "always"}, {"ratio", "ratio_kind", "delta_min", "iter_bound"}, set()),
    ({"n": (8,), "delta_min": "never"}, {"ratio", "ratio_kind"}, {"delta_min", "iter_bound"}),
])
def test_run_sweep_ratio_and_delta_min_modes(overrides, filled, empty):
    # at n = 8 auto mode fills all four cells, at n = 16 only the ratio
    row = run_sweep(SweepConfig(sigma=(0.1,), seeds=1, **overrides))[0]
    assert {col for col in filled | empty if row.get(col) is not None} == filled


@pytest.mark.parametrize("mode", ["bound", "auto"])
@pytest.mark.parametrize("metric, ratio", [("l2sq", None), ("l2", 1.0)])
def test_bound_ratio_only_under_the_triangle_inequality(mode, metric, ratio):
    # 20 evenly spaced points on a line: 2-opt ends on an optimal tour (under
    # l2sq Held-Karp's length differs in the last bit only), and 2 MST bounds
    # the optimum under l2 only; under l2sq it would read 1.947
    cfg = SweepConfig(n=(20,), sigma=(0.0,), metric=(metric,), origins="grid", dim=1,
                      seeds=1, ratio=mode)
    row = run_sweep(cfg)[0]
    assert row.get("ratio") == ratio
    assert row.get("ratio_kind") == (None if ratio is None else "bound")
    if metric == "l2":
        assert row["final_length"] == 2.0


def test_run_sweep_thread_width_invariance():
    cfg = _small_cfg()
    assert run_sweep(cfg, threads=1) == run_sweep(cfg, threads=4)
    lb = SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), seeds=2)
    assert run_sweep(lb, threads=1) == run_sweep(lb, threads=2)


def test_run_sweep_csv_byte_identical(tmp_path):
    cfg = _small_cfg(seeds=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(cfg, threads=3), str(p1))
    write_csv(run_sweep(cfg, threads=1), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == ",".join(ROW_COLUMNS)


def _gc_state_row(cfg, confs, row_id):
    """A sweep row that reports the gc state of the process that computes it."""
    return {"pid": os.getpid(), "frozen": gc.get_freeze_count()}


@pytest.mark.parametrize("caller", ["default", "frozen and disabled"])
def test_run_sweep_workers_freeze_their_heap_and_leave_the_callers(monkeypatch, tmp_path, caller):
    # a worker freezes the heap it forked with, so its collections never
    # walk it; the caller's gc stays enabled or disabled, and its frozen
    # objects neither thaw nor gain company (a frozen object may still be
    # freed, so the count may fall), and the CSV bytes stay as they were
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), seeds=2)

    def check_caller(frozen):
        assert gc.isenabled() == (caller == "default")
        assert 0 < gc.get_freeze_count() <= frozen if frozen else gc.get_freeze_count() == 0

    if caller != "default":
        gc.freeze()
        gc.disable()
    try:
        frozen = gc.get_freeze_count()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg, threads=1), str(p1))
        write_csv(run_sweep(cfg, threads=2), str(p2))
        check_caller(frozen)
        assert p1.read_bytes() == p2.read_bytes()
        monkeypatch.setattr(harness, "_sweep_row", _gc_state_row)
        rows = run_sweep(cfg, threads=2)
        check_caller(frozen)
        assert all(r["pid"] != os.getpid() and r["frozen"] > 0 for r in rows)
    finally:
        if caller != "default":
            gc.unfreeze()
            gc.enable()


_SPATIAL_PROBE = """
import json, os, sys
from twoptlab import harness

def row(cfg, confs, row_id):
    loaded = "scipy.spatial" in sys.modules
    real(cfg, confs, row_id)
    return {"pid": os.getpid(), "at_start": loaded, "at_end": "scipy.spatial" in sys.modules}

real, harness._sweep_row = harness._sweep_row, row
harness._usable_cpus = lambda: 2
rows = harness.run_sweep(harness.SweepConfig(**json.loads(sys.argv[1])), threads=2)
print(json.dumps({"pid": os.getpid(), "rows": rows, "parent": "scipy.spatial" in sys.modules}))
"""


@pytest.mark.parametrize("config, trees", [
    ({"experiment": "lb", "p": 3, "t": 1, "sigma": [1e-4], "seeds": 2}, True),
    ({"n": [20], "sigma": [0.1], "ratio": "bound", "seeds": 2}, True),
    ({"n": [8, 12], "sigma": [0.1], "ratio": "exact", "seeds": 2}, False),
    ({"n": [16], "sigma": [0.1], "ratio": "bound", "seeds": 2}, False),
    ({"n": [20], "dim": 1, "sigma": [0.1], "ratio": "bound", "seeds": 2}, False),
], ids=["lb", "ratio bound", "ratio exact", "ratio bound, n = 16", "ratio bound, 1-d"])
def test_run_sweep_imports_kd_trees_once_before_the_fork(tmp_path, config, trees):
    # import twoptlab loads no scipy.spatial; a sweep whose rows build
    # KD-trees (the certifier, mst_length in 2-d above 16 points) imports
    # it in the parent, so every worker starts with it, and any other sweep,
    # a bound sweep whose MST is dense Prim's among them, leaves the workers
    # and the parent without it
    proc = subprocess.run([sys.executable, "-c", _SPATIAL_PROBE, json.dumps(config)],
                          capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["rows"]) == 2 * len(config.get("n", [0]))
    assert all(r["pid"] != out["pid"] for r in out["rows"])
    assert all(r["at_start"] == r["at_end"] == trees for r in out["rows"])
    assert out["parent"] == trees


def test_replay_row_matches_sweep():
    cfg = _small_cfg(seeds=2)
    rows = run_sweep(cfg, threads=2)
    for row_id in (0, 5, 11):
        assert replay_row(cfg, row_id) == rows[row_id]
    with pytest.raises(ValueError, match="out of range"):
        replay_row(cfg, len(rows))
    with pytest.raises(ValueError, match="out of range"):
        replay_row(cfg, -1)


def test_run_sweep_stops_at_first_failure(monkeypatch, tmp_path):
    # one failing task cancels the queue instead of waiting for every row;
    # the rows run in worker processes, so each leaves a marker file
    def row(cfg, conf, config_index, seed_index):
        (tmp_path / f"started-{seed_index}").touch()
        if seed_index == 0:
            raise RuntimeError("row 0 failed")
        time.sleep(0.05)
        return {}

    monkeypatch.setattr(harness, "_two_opt_row", row)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="row 0 failed"):
        run_sweep(SweepConfig(n=(8,), sigma=(0.1,), seeds=50), threads=2)
    started = list(tmp_path.glob("started-*"))
    assert 1 <= len(started) < 50


def test_run_sweep_default_is_one_worker(monkeypatch):
    # the default width computes every row in the caller's process; a wider
    # sweep forks min(width, rows, usable CPUs) workers
    widths = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        widths.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(harness, "_two_opt_row", lambda *args: {"pid": os.getpid()})
    cfg = SweepConfig(n=(6,), sigma=(0.1,), seeds=4)
    assert {r["pid"] for r in run_sweep(cfg)} == {os.getpid()}
    assert widths == []
    pids = {r["pid"] for r in run_sweep(cfg, threads=3)}
    expected = min(3, 4, len(os.sched_getaffinity(0)))
    if expected > 1:
        assert widths == [expected]
        assert os.getpid() not in pids
    else:
        assert widths == [] and pids == {os.getpid()}


def test_run_sweep_caps_worker_count(monkeypatch):
    # a fork pool starts all its workers at once, so the width is capped by
    # the rows and the usable CPUs; this stand-in pool records the ask and
    # runs nothing
    asked = []

    class NoPool(Exception):
        pass

    def pool(max_workers, **kwargs):
        asked.append(max_workers)
        raise NoPool

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    two_rows = SweepConfig(n=(6,), sigma=(0.1,), seeds=2)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    with pytest.raises(NoPool):
        run_sweep(two_rows, threads=10**6)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    with pytest.raises(NoPool):
        run_sweep(SweepConfig(n=(6,), sigma=(0.1,), seeds=20), threads=10**6)
    # one usable CPU: the rows run in the caller, no pool is asked for
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert len(run_sweep(two_rows, threads=10**6)) == 2
    assert asked == [2, 3]


def test_run_sweep_largest_rows_first(monkeypatch):
    # two_opt rows go to the workers by descending n, lb rows in canonical
    # order; either way rows come back in row_id order
    submitted = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class Pool(real_pool):
        def submit(self, fn, *args):
            submitted.append(args[0])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_two_opt_row", lambda cfg, conf, ci, si: {"n": conf["n"]})
    monkeypatch.setattr(harness, "_lb_row", lambda cfg, conf, ci, si: {})
    rows = run_sweep(SweepConfig(n=(4, 9, 6), sigma=(0.1,), seeds=2), threads=2)
    assert [r["row_id"] for r in rows] == list(range(6))
    assert [r["n"] for r in rows] == [4, 4, 9, 9, 6, 6]
    assert submitted == [2, 3, 4, 5, 0, 1]
    submitted.clear()
    lb = SweepConfig(experiment="lb", p=3, sigma=(1e-4, 1e-5), seeds=2)
    assert [r["row_id"] for r in run_sweep(lb, threads=2)] == list(range(4))
    assert submitted == [0, 1, 2, 3]


def test_run_sweep_worker_errors_reach_the_caller(monkeypatch):
    # an exception keeps its type and message across the process boundary,
    # and a worker that dies fails the sweep instead of hanging it
    def row(cfg, conf, config_index, seed_index):
        if seed_index == 1:
            raise ValueError("row 1 failed")
        return {}

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = SweepConfig(n=(6,), sigma=(0.1,), seeds=4)
    monkeypatch.setattr(harness, "_two_opt_row", row)
    with pytest.raises(ValueError, match="^row 1 failed$"):
        run_sweep(cfg, threads=2)
    monkeypatch.setattr(harness, "_two_opt_row", lambda *args: os._exit(1))
    caught = []

    def sweep():
        try:
            run_sweep(cfg, threads=2)
        except concurrent.futures.BrokenExecutor as exc:
            caught.append(exc)

    caller = threading.Thread(target=sweep, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert len(caught) == 1


def test_run_sweep_ignores_thread_env_var(monkeypatch):
    # the width is the caller's argument alone; no environment variable
    # overrides it or can make a sweep fail
    cfg = SweepConfig(n=(6,), sigma=(0.1,), seeds=2)
    expected = run_sweep(cfg, threads=2)
    monkeypatch.setenv("TWOPT_THREADS", "zero")
    assert run_sweep(cfg) == expected
    assert run_sweep(cfg, threads=2) == expected


@pytest.mark.parametrize("threads", [0, -1])
def test_run_sweep_rejects_width_below_one(monkeypatch, threads):
    started = []
    monkeypatch.setattr(harness, "_two_opt_row", lambda *args: started.append(args))
    with pytest.raises(ValueError, match=">= 1"):
        run_sweep(SweepConfig(n=(6,), sigma=(0.1,), seeds=2), threads=threads)
    assert started == []


def test_lb_sweep_rows():
    cfg = SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), seeds=2)
    rows = run_sweep(cfg, threads=1)
    assert len(rows) == 2
    for row in rows:
        assert row["experiment"] == "lb"
        assert row["n"] == 762
        assert row["container_ok"] is True
        assert row["certified"] is True
        assert row["ratio_lb"] > 0.75
    # same sigma, different seed index -> different perturbations
    assert rows[0]["tour_length"] != rows[1]["tour_length"]


# ---------------------------------------------------------------------------
# CSV writer


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"row_id": 0, "sigma": 0.1, "converged": True, "ratio": None}]
    write_csv(rows, str(path), columns=["row_id", "sigma", "converged", "ratio"])
    assert path.read_text() == "row_id,sigma,converged,ratio\n0,0.1,true,\n"
    # numpy scalars write the same cells as the Python values
    rows = [{"row_id": 0, "sigma": np.float64(0.1), "converged": np.bool_(True), "ratio": None}]
    write_csv(rows, str(path), columns=["row_id", "sigma", "converged", "ratio"])
    assert path.read_text() == "row_id,sigma,converged,ratio\n0,0.1,true,\n"


@pytest.mark.parametrize("make_rows", [
    lambda: ratio_experiment(6, np.array([0.1, 0.3]), restarts=2, seeds=1),
    lambda: run_sweep(SweepConfig(n=(6,), sigma=(np.float64(0.1), np.float64(0.3)), seeds=1)),
], ids=["ratio-array-grid", "sweep-numpy-sigma"])
def test_numpy_sigma_grid_writes_plain_floats(tmp_path, make_rows):
    path = tmp_path / "rows.csv"
    rows = make_rows()
    write_csv(rows, str(path), columns=["sigma"])
    assert path.read_text() == "sigma\n0.1\n0.3\n"


def test_write_csv_error_leaves_no_tmp(tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    with pytest.raises(OSError):
        write_csv([{"row_id": 0}], str(target), columns=["row_id"])
    assert not os.path.exists(str(target) + ".tmp")


def test_write_csv_bad_row_removes_tmp(tmp_path):
    path = tmp_path / "rows.csv"

    def rows():
        yield {"row_id": 0}
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        write_csv(rows(), str(path), columns=["row_id"])
    assert not path.exists()
    assert not os.path.exists(str(path) + ".tmp")


# ---------------------------------------------------------------------------
# log-log fits


def test_scaling_fit_identity():
    rows = [{"x": float(x), "y": float(x)} for x in (1, 2, 4, 8, 16)]
    fit = scaling_fit(rows, "x", "y")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_square_root():
    rows = [{"n": float(x), "t": 3.0 * math.sqrt(x)} for x in (10, 100, 1000, 10000)]
    fit = scaling_fit(rows, "n", "t")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_scaling_fit_requires_three_distinct_x():
    rows = [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 2.0}, {"x": 2.0, "y": 2.1}]
    with pytest.raises(ValueError, match="three distinct"):
        scaling_fit(rows, "x", "y")


def test_scaling_fit_requires_positive_data():
    rows = [{"x": float(x), "y": float(x) - 2.0} for x in (1, 2, 4)]
    with pytest.raises(ValueError, match="positive"):
        scaling_fit(rows, "x", "y")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["x", "y"])
def test_scaling_fit_rejects_non_finite_data(field, bad):
    rows = [{"x": float(x), "y": float(x)} for x in (1, 2, 4, 8)]
    rows[2][field] = bad
    with pytest.raises(ValueError, match="finite"):
        scaling_fit(rows, "x", "y")


# ---------------------------------------------------------------------------
# paired ratio experiment


def test_ratio_experiment_pairing_and_shape():
    rows = ratio_experiment(6, [0.05, 0.5], restarts=3, seeds=2, base_seed=11)
    assert len(rows) == 4
    # the same seed_index reuses the same instance seed in every column
    by_col = {(r["config_index"], r["seed_index"]): r for r in rows}
    assert by_col[(0, 0)]["seed"] == by_col[(1, 0)]["seed"]
    assert by_col[(0, 1)]["seed"] == by_col[(1, 1)]["seed"]
    assert by_col[(0, 0)]["seed"] != by_col[(0, 1)]["seed"]
    for r in rows:
        assert r["ratio"] >= 1.0 - 1e-9
        assert r["two_opt_max"] == pytest.approx(r["ratio"] * r["optimum"], rel=1e-12)


def test_ratio_experiment_validation():
    with pytest.raises(ValueError, match="n <= 20"):
        ratio_experiment(21, [0.1], seeds=1)
    with pytest.raises(ValueError, match="origin_scale"):
        ratio_experiment(6, [0.1], seeds=1, origin_scale=0.0)
    for seeds in (0, -1):
        with pytest.raises(ValueError, match="seeds"):
            ratio_experiment(6, [0.1], seeds=seeds)
    with pytest.raises(ValueError, match="sigma"):
        ratio_experiment(6, [], seeds=1)


@pytest.mark.parametrize("kwargs, match", [
    ({"n": 2}, "3 <= n"),
    ({"restarts": 0}, "restarts"),
    ({"origin_scale": math.nan}, "origin_scale"),
    ({"origin_scale": math.inf}, "origin_scale"),
    ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
    ({"origins": "bogus"}, "origins rule"),
    ({"pivot": "bogus"}, "pivot rule"),
    ({"eps": 0.0}, "eps must be finite"),
], ids=["n-2", "restarts-0", "origin-scale-nan", "origin-scale-inf",
        "base-seed-negative", "origins-bogus", "pivot-bogus", "eps-0"])
def test_ratio_experiment_checks_its_arguments_first(monkeypatch, kwargs, match):
    # before, n = 2 and restarts = 0 failed inside row 0, a NaN or infinite
    # origin_scale failed there as non-finite coordinates, and a negative
    # base_seed failed in numpy without naming the argument; a bad pivot or
    # eps was caught only inside estimate_two_opt_max, which is stubbed here
    calls = []
    monkeypatch.setattr(harness, "estimate_two_opt_max", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=match):
        ratio_experiment(**{"n": 6, "sigma_grid": [0.1], "restarts": 2, "seeds": 2, **kwargs})
    assert calls == []


@pytest.mark.parametrize("grid", [(0.1, 2.0), (0.1, math.nan), (0.1, -0.5)])
def test_ratio_experiment_checks_the_whole_grid_first(monkeypatch, grid):
    # a bad sigma late in the grid must fail before the first row runs
    calls = []
    monkeypatch.setattr(harness, "estimate_two_opt_max", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="sigma"):
        ratio_experiment(6, grid, restarts=2, seeds=2)
    assert calls == []


# ---------------------------------------------------------------------------
# verification suites


def test_verify_chi_without_sampling():
    report = verify_suite("chi", samples=0)
    assert report.passed
    assert report.samples == 0
    # 6 normalization checks + 3 closed-form checks, no Monte-Carlo row
    assert len(report.checks) == 9
    assert all("cdf" not in c.name for c in report.checks)


def test_verify_integral_without_sampling():
    report = verify_suite("integral", samples=0)
    assert report.passed
    # d in 2..12, c in {1, 2} with c < d: 11 + 10 deterministic checks
    assert len(report.checks) == 21


def test_verify_monte_carlo_suites_reduced_samples():
    for name in ("ball", "line", "tail", "dominance", "chi", "integral"):
        report = verify_suite(name, samples=20_000, seed=5)
        assert report.suite == name
        assert report.passed, [
            (c.name, c.statistic, c.bound, c.slack) for c in report.checks if not c.passed
        ]
        for c in report.checks:
            assert c.statistic <= c.bound + c.slack


def test_verify_dominance_reduced_samples():
    report = verify_suite("dominance", samples=20_000, seed=1)
    assert report.passed


def test_verify_linked_few_runs():
    report = verify_suite("linked", samples=4, seed=2)
    assert report.passed
    assert len(report.checks) == 4


def test_verify_suite_validation():
    with pytest.raises(ValueError, match="unknown verify suite"):
        verify_suite("entropy")
    with pytest.raises(ValueError, match="samples"):
        verify_suite("ball", samples=0)
    with pytest.raises(ValueError, match=">= 0"):
        verify_suite("chi", samples=-1)


def test_verify_report_passed_property():
    report = verify_suite("chi", samples=0)
    assert report.passed is True
    report.checks[0].passed = False
    assert report.passed is False
