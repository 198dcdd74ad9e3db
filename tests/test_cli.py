"""End-to-end CLI coverage: pipelines, output formats, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import test_lower_bound
import twoptlab
from twoptlab import harness
from twoptlab.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, main
from twoptlab.harness import RATIO_COLUMNS, ROW_COLUMNS


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# gen / run / exact pipeline


def test_gen_run_exact_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "8", "--sigma", "0.3", "--seed", "5",
                   "-o", str(inst_path)) == EXIT_OK

    data = json.loads(inst_path.read_text())
    assert data["dim"] == 2 and len(data["points"]) == 8

    assert run_cli("run", "--instance", str(inst_path), "--seed", "9") == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["converged"] is True
    assert rec["final_length"] <= rec["initial_length"]

    assert run_cli("exact", "--instance", str(inst_path), "--algo", "heldkarp") == EXIT_OK
    hk = json.loads(capsys.readouterr().out)
    assert run_cli("exact", "--instance", str(inst_path), "--algo", "brute") == EXIT_OK
    bf = json.loads(capsys.readouterr().out)
    assert hk["algorithm"] == "heldkarp" and bf["algorithm"] == "brute"
    assert hk["length"] == pytest.approx(bf["length"], rel=1e-9)
    # the local optimum can never undercut the true optimum
    assert rec["final_length"] >= hk["length"] - 1e-9


def test_run_is_deterministic(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--sigma", "0.2", "--seed", "1", "-o", str(inst_path))
    run_cli("run", "--instance", str(inst_path), "--seed", "4", "--record-changes")
    first = capsys.readouterr().out
    run_cli("run", "--instance", str(inst_path), "--seed", "4", "--record-changes")
    assert capsys.readouterr().out == first
    assert json.loads(first)["changes"] is not None


@pytest.mark.parametrize("name, alias", [("nearest_neighbor", "nn"), ("greedy_insertion", "greedy")])
def test_run_accepts_every_start_rule_name(tmp_path, capsys, name, alias):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "10", "--sigma", "0.2", "--seed", "1", "-o", str(inst_path))
    assert run_cli("run", "--instance", str(inst_path), "--init", alias) == EXIT_OK
    short = capsys.readouterr().out
    assert run_cli("run", "--instance", str(inst_path), "--init", name) == EXIT_OK
    assert capsys.readouterr().out == short
    assert json.loads(short)["init"] == name


def test_gen_from_origins_file(tmp_path):
    origins = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.2, 0.4]]
    origins_path = tmp_path / "origins.json"
    origins_path.write_text(json.dumps(origins))
    inst_path = tmp_path / "inst.json"
    assert run_cli("gen", "--origins", f"file:{origins_path}",
                   "-o", str(inst_path)) == EXIT_OK
    data = json.loads(inst_path.read_text())
    assert np.array_equal(np.asarray(data["points"]), np.asarray(origins))  # sigma=0

    # row-count and dimension mismatches are validation errors
    assert run_cli("gen", "--origins", f"file:{origins_path}", "--n", "3",
                   "-o", str(inst_path)) == EXIT_VALIDATION
    assert run_cli("gen", "--origins", f"file:{origins_path}", "--dim", "3",
                   "-o", str(inst_path)) == EXIT_VALIDATION


def test_gen_rejects_nan_sigma(tmp_path, capsys):
    out = tmp_path / "x.json"
    for sigma in ("nan", "inf"):
        assert run_cli("gen", "--n", "5", "--sigma", sigma, "-o", str(out)) == EXIT_VALIDATION
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


def _run_capped(argv, cwd):
    """`twoptlab` in a child whose address space is capped at 1 GiB, so a
    point set that is allocated before it is refused fails in the child
    with MemoryError instead of exhausting the host."""
    launcher = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from twoptlab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = _checkout_env()
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("size", [["--n", "8", "--dim", "100000000"], ["--n", "100000000"]],
                         ids=["huge-dim", "huge-n"])
def test_gen_refuses_oversized_point_sets(tmp_path, size):
    out = tmp_path / "x.json"
    proc = _run_capped(["gen", *size, "-o", str(out)], tmp_path)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error:") and "coordinates, over 16777216" in proc.stderr
    assert not out.exists()


def test_gen_grid_in_many_dimensions_builds_only_its_nodes(tmp_path):
    # the first 8 nodes of the 2^40 lattice, without the lattice
    out = tmp_path / "x.json"
    proc = _run_capped(["gen", "--n", "8", "--origins", "grid", "--dim", "40", "-o", str(out)],
                       tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    origins = np.asarray(json.loads(out.read_text())["origins"])
    assert origins.shape == (8, 40)
    assert not origins[:, :37].any()
    assert np.array_equal(origins[:, 37:], [[(i >> b) & 1 for b in (2, 1, 0)] for i in range(8)])


def test_out_of_memory_is_a_validation_error(monkeypatch, capsys, tmp_path):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 6.4 GiB")

    monkeypatch.setattr("twoptlab.cli.make_origins", exhausted)
    assert run_cli("gen", "--n", "8", "-o", str(tmp_path / "x.json")) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 6.4 GiB\n"


def test_gen_rejects_non_finite_origins_file(tmp_path):
    origins_path = tmp_path / "origins.json"
    origins_path.write_text("[[0.0, 0.0], [NaN, 1.0], [0.5, 1.0]]")
    out = tmp_path / "x.json"
    assert run_cli("gen", "--origins", f"file:{origins_path}", "-o", str(out)) == EXIT_VALIDATION
    assert not out.exists()


_HUGE = int("1" * 400)


@pytest.mark.parametrize("rows", [
    [[_HUGE, 0.0], [0.0, 1.0], [1.0, 0.0]],
    [{"x": 0.0}, {"x": 1.0}],
    [["0.1", "0.2"], ["0.3", "0.9"], [True, 0.5]],
    [[0.1, 0.2], [0.3, 0.9], [True, 0.5]],
], ids=["huge-integer", "object-rows", "quoted-numbers", "boolean"])
def test_gen_rejects_origins_file_that_is_not_numbers(tmp_path, capsys, rows):
    origins_path = tmp_path / "origins.json"
    origins_path.write_text(json.dumps(rows))
    out = tmp_path / "x.json"
    assert run_cli("gen", "--origins", f"file:{origins_path}", "-o", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _huge_point(data):
    data["points"][0][0] = _HUGE


def _quoted_coordinates(data):
    for key in ("origins", "points"):
        data[key] = [[repr(x) for x in row] for row in data[key]]


def _boolean_coordinate(data):
    # unperturbed, so points equal origins; numpy would read true as 1.0
    data["sigma"] = 0.0
    data["points"] = [list(row) for row in data["origins"]]
    data["origins"][1][0] = data["points"][1][0] = True


@pytest.mark.parametrize("edit", [
    lambda d: d.update(sigma=_HUGE),
    _huge_point,
    lambda d: d.update(origins=[{"x": 0.0, "y": 0.0}] * len(d["origins"])),
    lambda d: d["points"][2].__setitem__(1, d["points"][2][1] + 1e-3),
    _quoted_coordinates,
    _boolean_coordinate,
], ids=["huge-sigma", "huge-point", "object-origins", "moved-point", "quoted-coordinates",
        "boolean-coordinate"])
def test_malformed_or_edited_instance_file_exits_1(tmp_path, capsys, edit):
    inst_path = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "6", "--sigma", "0.1", "--seed", "3",
                   "-o", str(inst_path)) == EXIT_OK
    data = json.loads(inst_path.read_text())
    edit(data)
    inst_path.write_text(json.dumps(data))
    assert run_cli("run", "--instance", str(inst_path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_gen_requires_n_without_file(tmp_path):
    assert run_cli("gen", "-o", str(tmp_path / "x.json")) == EXIT_VALIDATION


def test_exact_brute_cap_is_validation_error(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "--n", "13", "--sigma", "0.1", "-o", str(inst_path))
    assert run_cli("exact", "--instance", str(inst_path),
                   "--algo", "brute") == EXIT_VALIDATION


def test_missing_instance_is_io_error(tmp_path):
    assert run_cli("run", "--instance", str(tmp_path / "nope.json")) == EXIT_IO


def test_bad_flag_is_validation_error(tmp_path):
    assert run_cli("run", "--instance", "x.json", "--pivot", "worst") == EXIT_VALIDATION
    assert run_cli("frobnicate") == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ("run", "--eps", "-1"),
    ("run", "--eps", "nan"),
    ("run", "--max-iter", "-1"),
    ("lb", "certify", "--eps", "nan"),
    ("lb", "certify", "--eps", "0"),
])
def test_out_of_range_stopping_rule_exits_1_promptly(tmp_path, argv):
    # each of these could hang `run` or report "converged" / "certified"
    # without comparing a single gain; the subprocess timeout bounds a hang
    inst_path = tmp_path / "inst.json"
    if argv[0] == "run":
        assert run_cli("gen", "--n", "12", "--sigma", "0.0", "--origins", "grid",
                       "-o", str(inst_path)) == EXIT_OK
    else:
        assert run_cli("lb", "build", "--p", "3", "--t", "1", "-o", str(inst_path)) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", *argv[:-2], "--instance", str(inst_path), *argv[-2:]],
        capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "error:" in proc.stderr


def test_run_at_rounding_level_gains_exits_1_promptly(tmp_path):
    # l1 gains at 1e6 coordinates: a change and its inverse both "improve";
    # without max_iter the run used to flip between two tours forever
    points = 1e6 * twoptlab.perturb(twoptlab.make_origins("uniform", 12, 2, 0), 0.3, 0).points
    origins_path, inst_path = tmp_path / "origins.json", tmp_path / "inst.json"
    origins_path.write_text(json.dumps(points.tolist()))
    assert run_cli("gen", "--origins", f"file:{origins_path}", "--sigma", "0",
                   "-o", str(inst_path)) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", "run", "--instance", str(inst_path),
         "--metric", "l1", "--pivot", "first", "--seed", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "error:" in proc.stderr and "rounding level" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["gen", "run", "exact"])
def test_overflowing_coordinates_exit_1_promptly(tmp_path, command):
    # every l2 distance of these points overflows; `run` used to report
    # "converged" at length inf and `exact` never returned
    points = 1e200 * twoptlab.perturb(twoptlab.make_origins("uniform", 12, 2, 0), 0.3, 0).points
    origins_path, inst_path = tmp_path / "origins.json", tmp_path / "inst.json"
    origins_path.write_text(json.dumps(points.tolist()))
    inst_path.write_text(json.dumps({"dim": 2, "sigma": 0.0, "seed": 0,
                                     "origins": points.tolist(), "points": points.tolist()}))
    argv = {
        "gen": ["gen", "--origins", f"file:{origins_path}", "--sigma", "0",
                "-o", str(tmp_path / "out.json")],
        "run": ["run", "--instance", str(inst_path)],
        "exact": ["exact", "--instance", str(inst_path)],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# ratio experiment


def test_ratio_csv(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run_cli("ratio", "--n", "6", "--sigma-grid", "0.05,0.5",
                   "--restarts", "2", "--seeds", "2", "-o", str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(RATIO_COLUMNS)
    assert len(lines) == 1 + 4
    ratio_col = RATIO_COLUMNS.index("ratio")
    assert all(float(line.split(",")[ratio_col]) >= 1.0 - 1e-9 for line in lines[1:])


def test_ratio_empty_grid(tmp_path):
    assert run_cli("ratio", "--n", "6", "--sigma-grid", ",",
                   "-o", str(tmp_path / "r.csv")) == EXIT_VALIDATION


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_ratio_rejects_seeds_below_one(tmp_path, seeds):
    out = tmp_path / "r.csv"
    assert run_cli("ratio", "--n", "6", "--sigma-grid", "0.1", "--seeds", seeds,
                   "-o", str(out)) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "2", "got n=2"),
    ("--restarts", "0", "restarts must be >= 1"),
    ("--origin-scale", "nan", "origin_scale must be finite and positive, got nan"),
    ("--origin-scale", "inf", "origin_scale must be finite and positive, got inf"),
    ("--seed", "-1", "base_seed must be >= 0, got -1"),
])
def test_ratio_rejects_bad_arguments_by_name(tmp_path, capsys, flag, value, message):
    out = tmp_path / "r.csv"
    assert run_cli("ratio", "--n", "6", "--sigma-grid", "0.1", "--seeds", "2", "--restarts", "2",
                   flag, value, "-o", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_ratio_with_a_zero_optimum_leaves_ratio_empty(tmp_path):
    # at sigma = 0 all single-point origins coincide, so the optimum is 0
    out = tmp_path / "r.csv"
    assert run_cli("ratio", "--n", "6", "--sigma-grid", "0,0.1", "--origins", "single-point",
                   "--seeds", "1", "--restarts", "2", "-o", str(out)) == EXIT_OK
    zero, noisy = [dict(zip(RATIO_COLUMNS, line.split(",")))
                   for line in out.read_text().splitlines()[1:]]
    assert zero["optimum"] == "0.0" and zero["ratio"] == ""
    assert float(noisy["ratio"]) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# layered lower-bound tools


def test_lb_build_certify_ratio(tmp_path, capsys):
    lb_path = tmp_path / "lb.json"
    assert run_cli("lb", "build", "--p", "3", "--t", "1", "--sigma", "1e-4",
                   "-o", str(lb_path)) == EXIT_OK

    assert run_cli("lb", "certify", "--instance", str(lb_path), "--eps", "1e-15") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True
    assert payload["container_ok"] is True
    assert payload["worst_offset_ratio"] == 0.0  # stored points are the origins

    assert run_cli("lb", "ratio", "--instance", str(lb_path)) == EXIT_OK
    ratio = json.loads(capsys.readouterr().out)
    assert ratio["ratio_lb"] == pytest.approx(0.76923, abs=1e-4)
    assert ratio["tour_length"] == pytest.approx(20.0 / 9.0, rel=1e-12)


def test_lb_build_perturbed_certifies(tmp_path, capsys):
    lb_path = tmp_path / "lb.json"
    assert run_cli("lb", "build", "--p", "3", "--t", "1", "--sigma", "1e-4",
                   "--seed", "3", "-o", str(lb_path)) == EXIT_OK
    assert run_cli("lb", "certify", "--instance", str(lb_path)) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True and payload["container_ok"] is True
    assert 0.0 < payload["worst_offset_ratio"] <= 1.0


def test_lb_certify_failure_exits_2(tmp_path, capsys):
    # sigma far above the default-t threshold: containers break and the
    # designated tour admits an improving 2-change (seed 0 frozen after a scan)
    lb_path = tmp_path / "bad.json"
    assert run_cli("lb", "build", "--p", "3", "--t", "1", "--sigma", "0.01",
                   "--seed", "0", "-o", str(lb_path)) == EXIT_OK
    assert run_cli("lb", "certify", "--instance", str(lb_path)) == EXIT_VERIFICATION
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is False
    assert payload["container_ok"] is False
    assert payload["max_violation_gain"] == pytest.approx(0.0098611, rel=1e-4)
    assert len(payload["violation_removed"]) == 2
    assert len(payload["violation_added"]) == 2


def _lb_commands(tmp_path, capsys, seed):
    """`lb build --p 3 --t 1 --sigma 1e-4 --seed S`; its file, `lb certify` and `lb ratio` JSON."""
    path = tmp_path / "lb.json"
    assert run_cli("lb", "build", "--p", "3", "--t", "1", "--sigma", "1e-4",
                   "--seed", str(seed), "-o", str(path)) == EXIT_OK
    assert run_cli("lb", "certify", "--instance", str(path)) == EXIT_OK
    certify = json.loads(capsys.readouterr().out)
    assert run_cli("lb", "ratio", "--instance", str(path)) == EXIT_OK
    return path, certify, json.loads(capsys.readouterr().out)


def test_lb_commands_report_the_lb_sweep_row(tmp_path, capsys):
    cfg = harness.SweepConfig(experiment="lb", p=3, t=1, sigma=(1e-4,), seeds=1)
    row = harness.run_sweep(cfg)[0]
    path, certify, ratio = _lb_commands(tmp_path, capsys, row["seed"])
    assert {**certify, **ratio} == {"eps": row["eps"], **{
        key: row[key] for key in ("certified", "tour_length", "container_ok",
                                  "worst_offset_ratio", "mst2", "ratio_lb")}}
    li, inst = twoptlab.LayeredInstance.from_json(path.read_text())
    assert twoptlab.ratio_lower_bound(li, inst) == row["ratio_lb"]


def test_lb_commands_frozen_values(tmp_path, capsys):
    path, certify, ratio = _lb_commands(tmp_path, capsys, 5)
    assert ratio == {"tour_length": 2.2308046912539425, "mst2": 2.90225244184855,
                     "ratio_lb": 0.7686459865059367}
    assert certify["tour_length"] == ratio["tour_length"]
    li, inst = twoptlab.LayeredInstance.from_json(path.read_text())
    assert twoptlab.ratio_lower_bound(li, inst) == ratio["ratio_lb"]


@pytest.mark.parametrize("name", sorted(test_lower_bound.TAMPERINGS))
@pytest.mark.parametrize("command", ["ratio", "certify"])
def test_lb_tampered_instance_exits_1(tmp_path, capsys, name, command):
    # unchecked, the swapped-label file reports ratio_lb 1.100 against the true 0.769
    path = tmp_path / "lb.json"
    path.write_text(test_lower_bound.tampered_layered_json(name))
    assert run_cli("lb", command, "--instance", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [["run"], ["lb", "certify"], ["lb", "ratio"]])
@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_instance_file_that_is_not_an_object_exits_1(tmp_path, capsys, argv, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert run_cli(*argv, "--instance", str(path)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: instance JSON must be an object")


def test_lb_build_rejects_even_p(tmp_path):
    assert run_cli("lb", "build", "--p", "4",
                   "-o", str(tmp_path / "x.json")) == EXIT_VALIDATION


@pytest.mark.parametrize("p", ["5", "7"])
def test_lb_build_over_the_size_budget_exits_1_promptly(tmp_path, p):
    # p = 5 needs ~1e7 points and p = 7 ~3e12; the subprocess timeout bounds a hang
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", "lb", "build", "--p", p, "-o", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "points" in proc.stderr
    assert not out.exists()


def test_lb_build_large_p_with_sigma_exits_1(tmp_path):
    # the default-t rule meets p ** (2t+1) far beyond the float range here
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", "lb", "build", "--p", "101", "--sigma", "1e-4",
         "-o", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=_checkout_env(), timeout=60,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["exact"], ["lb", "certify"], ["lb", "ratio"]])
def test_output_file_holds_the_printed_bytes(tmp_path, capsys, monkeypatch, argv):
    # exact reports its solve time; a stopped clock makes the two calls agree
    monkeypatch.setattr(twoptlab.exact, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    path = tmp_path / "inst.json"
    if argv[0] == "lb":
        assert run_cli("lb", "build", "--p", "3", "--t", "1", "--sigma", "1e-4",
                       "--seed", "2", "-o", str(path)) == EXIT_OK
    else:
        assert run_cli("gen", "--n", "8", "--sigma", "0.3", "--seed", "5",
                       "-o", str(path)) == EXIT_OK
    assert run_cli(*argv, "--instance", str(path)) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--instance", str(path), "-o", str(out)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


# ---------------------------------------------------------------------------
# verify


def test_verify_chi_fast(capsys):
    assert run_cli("verify", "--suite", "chi", "--samples", "0") == EXIT_OK
    out = capsys.readouterr().out
    assert "9/9 checks passed: PASS" in out


def test_verify_failed_check_exits_2(capsys, monkeypatch):
    def failing(samples, seed):
        return [harness._check("forced", 2.0, 1.0)]

    monkeypatch.setitem(harness.VERIFY_SUITES, "chi", (failing, 10**6))
    assert run_cli("verify", "--suite", "chi", "--samples", "0") == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert "forced: statistic=2 bound=1 slack=0 FAIL" in captured.out
    assert "0/1 checks passed: FAIL" in captured.out
    assert captured.err == "verification failed: verify suite 'chi' failed\n"


def test_verify_unknown_suite():
    assert run_cli("verify", "--suite", "entropy") == EXIT_VALIDATION


def test_verify_mc_suite_rejects_zero_samples():
    assert run_cli("verify", "--suite", "ball", "--samples", "0") == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# sweep / replay / plot-data


SWEEP_CONFIG = """
n = 6, 8
sigma = 0.05
seeds = 2
base_seed = 1
"""


def test_sweep_replay_plot_data(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--threads", "2",
                   "-o", str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ROW_COLUMNS)
    assert len(lines) == 1 + 4

    assert run_cli("replay", "--row-id", "2", "--config", str(cfg_path)) == EXIT_OK
    replay_lines = capsys.readouterr().out.splitlines()
    assert replay_lines[0] == lines[0]
    assert replay_lines[1] == lines[3]  # row_id 2 lives on data line 3

    tidy = tmp_path / "tidy.csv"
    assert run_cli("plot-data", "--input", str(out), "-o", str(tidy)) == EXIT_OK
    tidy_lines = tidy.read_text().splitlines()
    header = tidy_lines[0].split(",")
    assert header[-2:] == ["variable", "value"]
    variables = {line.split(",")[-2] for line in tidy_lines[1:]}
    assert "final_length" in variables and "iterations" in variables
    assert "row_id" not in variables  # identifiers are not melted
    assert all(line.split(",")[-1] != "" for line in tidy_lines[1:])


@pytest.mark.parametrize("n", [8, 30])  # Held-Karp's optimum, then the 2 MST bound
def test_sweep_with_a_zero_optimum_leaves_ratio_empty(tmp_path, n):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(f"n = {n}\nsigma = 0\norigins = single-point\nseeds = 1\n")
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "-o", str(out)) == EXIT_OK
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["final_length"] == "0.0"
    assert row["ratio"] == "" and row["ratio_kind"] == ""


def test_replay_out_of_range(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    assert run_cli("replay", "--row-id", "99", "--config", str(cfg_path)) == EXIT_VALIDATION


def test_sweep_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("n = 6\nsigma = 0.1\nturbo = on\n")
    assert run_cli("sweep", "--config", str(cfg_path),
                   "-o", str(tmp_path / "x.csv")) == EXIT_VALIDATION


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_rejects_threads_below_one(tmp_path, threads):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--threads", threads,
                   "-o", str(out)) == EXIT_VALIDATION
    assert not out.exists()


def _row_raises(*args):
    raise ValueError("row failed in a worker")


def _row_kills_worker(*args):
    os._exit(1)


@pytest.mark.parametrize("row, message", [
    (_row_raises, "error: row failed in a worker\n"),
    (_row_kills_worker, "error: "),
])
def test_sweep_worker_failure_exits_one(tmp_path, capsys, monkeypatch, row, message):
    monkeypatch.setattr(harness, "_two_opt_row", row)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--threads", "2",
                   "-o", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_sweep_missing_config_is_io_error(tmp_path):
    assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg"),
                   "-o", str(tmp_path / "x.csv")) == EXIT_IO


def test_plot_data_empty_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli("plot-data", "--input", str(empty),
                   "-o", str(tmp_path / "t.csv")) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# console entry point


def _declared_entry_point():
    """argv prefix that starts the `twoptlab` script declared in pyproject.toml.

    It runs the target the way pip's generated wrapper does, so the check
    needs no install and cannot pick up a `twoptlab` from another checkout.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["twoptlab"]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def _checkout_env():
    """Environment whose PYTHONPATH leads a child to the twoptlab imported here."""
    src = str(Path(twoptlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _gen_exact_round_trip(launcher, tmp_path, env=None):
    inst_path = tmp_path / "inst.json"
    gen = subprocess.run(
        [*launcher, "gen", "--n", "5", "--sigma", "0.1", "-o", str(inst_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert gen.returncode == 0, gen.stderr
    exact = subprocess.run(
        [*launcher, "exact", "--instance", str(inst_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert exact.returncode == 0, exact.stderr
    assert json.loads(exact.stdout)["length"] > 0


def test_console_script_round_trip(tmp_path):
    _gen_exact_round_trip(_declared_entry_point(), tmp_path, _checkout_env())


@pytest.mark.skipif(shutil.which("twoptlab") is None,
                    reason="no installed twoptlab script on PATH")
def test_installed_console_script_round_trip(tmp_path):
    _gen_exact_round_trip([shutil.which("twoptlab")], tmp_path)


def test_module_main_matches_package(tmp_path):
    # `python -m twoptlab.cli` must agree with the declared console script
    argv = ["verify", "--suite", "chi", "--samples", "0"]
    env = _checkout_env()
    via_module = subprocess.run(
        [sys.executable, "-m", "twoptlab.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    via_script = subprocess.run(
        [*_declared_entry_point(), *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert via_module.returncode == 0, via_module.stderr
    assert "PASS" in via_module.stdout
    assert via_script.returncode == via_module.returncode, via_script.stderr
    assert via_script.stdout == via_module.stdout


def test_exact_linked_pairs_need_no_networkx(tmp_path):
    # the exact matching runs on scipy's HiGHS, which import twoptlab leaves unloaded
    probe = """
import sys
sys.modules["networkx"] = None  # import networkx fails
import twoptlab
print("scipy.optimize" in sys.modules)
inst = twoptlab.perturb(twoptlab.make_origins("uniform", 12, 2, 21), 0.3, 21)
rec = twoptlab.run_two_opt(inst, "l2", init="random", pivot="first", seed=21, keep_changes=True)
print(twoptlab.count_disjoint_linked_pairs(rec.changes, method="greedy")[0],
      twoptlab.count_disjoint_linked_pairs(rec.changes, method="exact")[0])
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=tmp_path, env=_checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "9", "10"]


_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def test_import_and_gen_leave_scipy_unloaded(tmp_path):
    # scipy.spatial is imported by the first KD-tree and scipy.integrate by
    # the chi and integral suites, so neither a process that only imports
    # twoptlab nor a gen call (as `python -m twoptlab.cli`) pays for scipy
    gen = ["twoptlab.cli", "gen", "--n", "30", "--sigma", "0.1", "-o", str(tmp_path / "inst.json")]
    probes = [
        f"import sys, twoptlab; {_SCIPY_MODULES}",
        f"import runpy, sys\nsys.argv = {gen!r}\ntry:\n"
        f"    runpy.run_module('twoptlab.cli', run_name='__main__', alter_sys=True)\n"
        f"except SystemExit as stop:\n    assert stop.code == 0, stop.code\n{_SCIPY_MODULES}",
    ]
    for probe in probes:
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=tmp_path, env=_checkout_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", probe
    assert json.loads((tmp_path / "inst.json").read_text())["dim"] == 2
