"""Acceptance checks for the whole laboratory, one criterion per test.

Every test prints a single summary line (past the capture) so a plain
``pytest tests/test_acceptance.py`` run shows a pass/fail scoreboard; the
asserts carry the same condition, so a FAIL line always comes with a red
test.  Budgets are part of the criteria and are asserted too.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from twoptlab import (
    Metric,
    brute_force,
    build_layered,
    build_long_tour,
    certify_two_optimality,
    check_containers,
    chi_inverse_moment,
    chi_pdf,
    count_disjoint_linked_pairs,
    held_karp,
    linked_pair_bound,
    make_origins,
    min_improvement,
    mst_length,
    perturb,
    ratio_lower_bound,
    run_two_opt,
)
from twoptlab.harness import (
    ROW_COLUMNS,
    SweepConfig,
    parse_config,
    ratio_experiment,
    run_sweep,
    scaling_fit,
    task_seed,
    verify_suite,
    write_csv,
)


def _report(capsys, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {num:02d} {name:<36s} {status}  ({detail})")


# criterion 1: held_karp == brute_force, 100 instances per metric, n in [5,10],
# relative agreement 1e-9, under one minute
def test_criterion_01_exact_oracle_agreement(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for mi, metric in enumerate(("l1", "l2", "l2sq")):
        for k in range(100):
            n = 5 + k % 6
            seed = task_seed(100, mi, k)
            inst = perturb(make_origins("uniform", n, 2, seed), 0.3, seed)
            hk = held_karp(inst, metric).length
            bf = brute_force(inst, metric).length
            worst = max(worst, abs(hk - bf) / bf)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 300 and worst <= 1e-9 and elapsed < 60.0
    _report(capsys, 1, "exact-oracle agreement", ok,
            f"{checked}/300 instances, max rel diff {worst:.2e}, {elapsed:.1f}s")
    assert ok


# criterion 2: 200 runs across all metrics and pivots, n up to 200; the
# post-run full scan finds no improving pair at eps = 1e-12; under two minutes
def test_criterion_02_local_optimality_certification(capsys):
    t0 = time.perf_counter()
    combos = list(itertools.product(("l1", "l2", "l2sq"), ("first", "best", "random")))
    sizes = (20, 50, 120, 200)
    clean = 0
    for k in range(200):
        metric, pivot = combos[k % len(combos)]
        n = sizes[k % len(sizes)]
        seed = task_seed(1000, 0, k)
        inst = perturb(make_origins("uniform", n, 2, seed), 0.3, seed)
        rec = run_two_opt(inst, metric, init="random", pivot=pivot, eps=1e-12, seed=seed)
        if rec.converged and certify_two_optimality(inst.points, rec.final_order, metric, 1e-12) is None:
            clean += 1
    elapsed = time.perf_counter() - t0
    ok = clean == 200 and elapsed < 120.0
    _report(capsys, 2, "local-optimality certification", ok,
            f"{clean}/200 post-scans clean, {elapsed:.1f}s")
    assert ok


# criterion 3: iterations <= initial_length / delta_min whenever delta_min
# exists, on 100 instances with n <= 12; exact inequality
def test_criterion_03_iteration_bound(capsys):
    t0 = time.perf_counter()
    bounded = 0
    with_dm = 0
    for k in range(100):
        n = 5 + k % 8
        seed = task_seed(300, 0, k)
        inst = perturb(make_origins("uniform", n, 2, seed), 0.3, seed)
        rec = run_two_opt(inst, "l2", init="random", pivot="first", eps=1e-12, seed=seed)
        dm = min_improvement(inst, "l2", 1e-12)
        if dm is None:
            continue
        with_dm += 1
        if rec.iterations <= rec.initial_length / dm:
            bounded += 1
    elapsed = time.perf_counter() - t0
    ok = with_dm > 0 and bounded == with_dm
    _report(capsys, 3, "iteration-count bound", ok,
            f"{bounded}/{with_dm} runs within bound (100 instances), {elapsed:.1f}s")
    assert ok


# criterion 4: chi_inverse_moment vs quadrature to 1e-6 over d in 2..12,
# c in {1,2}, d > c; chi pdf matches Rayleigh/Maxwell to 1e-10
def test_criterion_04_chi_closed_forms(capsys):
    worst_mom = 0.0
    cases = 0
    for d in range(2, 13):
        for c in (1, 2):
            if c >= d:
                continue
            sigma = 1.0 if d % 2 == 0 else 0.7
            closed = chi_inverse_moment(d, c, sigma)
            numeric, _ = quad(
                lambda x: chi_pdf(x, d, sigma) * x ** (-c), 0.0, 30.0 * sigma,
                points=[sigma * 1e-6, sigma],
            )
            worst_mom = max(worst_mom, abs(closed - numeric) / closed)
            cases += 1
    xs = np.linspace(0.05, 6.0, 60)
    worst_pdf = 0.0
    for sigma in (0.8, 1.0, 1.3):
        rayleigh = xs / sigma**2 * np.exp(-((xs / sigma) ** 2) / 2.0)
        maxwell = math.sqrt(2.0 / math.pi) * xs**2 / sigma**3 * np.exp(-((xs / sigma) ** 2) / 2.0)
        worst_pdf = max(
            worst_pdf,
            float(np.max(np.abs(chi_pdf(xs, 2, sigma) - rayleigh) / rayleigh)),
            float(np.max(np.abs(chi_pdf(xs, 3, sigma) - maxwell) / maxwell)),
        )
    ok = cases == 21 and worst_mom <= 1e-6 and worst_pdf <= 1e-10
    _report(capsys, 4, "chi closed forms", ok,
            f"{cases} moment cases max rel {worst_mom:.2e}, pdf max rel {worst_pdf:.2e}")
    assert ok


# criterion 5: the four Monte-Carlo probability suites at 10^6 samples, every
# empirical statistic within bound + 3 SE, 12 grid points total; under 5 min
def test_criterion_05_monte_carlo_probability_suite(capsys):
    t0 = time.perf_counter()
    reports = [verify_suite(name, samples=10**6, seed=0)
               for name in ("ball", "line", "dominance", "tail")]
    elapsed = time.perf_counter() - t0
    points = sum(len(r.checks) for r in reports)
    failed = [c.name for r in reports for c in r.checks if not c.passed]
    ok = points == 12 and not failed and elapsed < 300.0
    _report(capsys, 5, "monte-carlo probability suite", ok,
            f"{points - len(failed)}/{points} grid points within bound+3SE, {elapsed:.1f}s")
    assert ok, failed


# criterion 6: on 50 recorded runs (n in [20,100], random init, first
# improvement) the disjoint type-0/1 linked-pair count reaches ceil(t/7 - 3n/28)
def test_criterion_06_linked_pair_bound(capsys):
    t0 = time.perf_counter()
    holds = 0
    min_margin = None
    for k in range(50):
        n = 20 + (k * 80) // 49
        seed = task_seed(2000, 0, k)
        inst = perturb(make_origins("uniform", n, 2, seed), 0.3, seed)
        rec = run_two_opt(inst, "l2", init="random", pivot="first",
                          eps=1e-12, seed=seed, keep_changes=True)
        count, _ = count_disjoint_linked_pairs(rec.changes, n=n)
        bound = linked_pair_bound(rec.iterations, n)
        margin = count - bound
        min_margin = margin if min_margin is None else min(min_margin, margin)
        if count >= bound:
            holds += 1
    elapsed = time.perf_counter() - t0
    ok = holds == 50
    _report(capsys, 6, "linked-pair bound", ok,
            f"{holds}/50 runs, min margin {min_margin}, {elapsed:.1f}s")
    assert ok


# criterion 7: (a) log-log slope of mean 2-opt tour length vs n in [0.45, 0.55]
# for uniform 2-d instances, n in {100..1600}, 30 seeds; (b) 2*MST of
# single-origin perturbed instances is linear in sigma with R^2 >= 0.95;
# both under ten minutes
def test_criterion_07_tour_length_scaling(capsys):
    t0 = time.perf_counter()
    cfg = SweepConfig(
        experiment="two_opt", n=(100, 200, 400, 800, 1600), sigma=(0.0,),
        metric=("l2",), pivot=("first",), init=("nearest_neighbor",),
        origins="uniform", seeds=30, base_seed=0,
    )
    rows = run_sweep(cfg)
    by_n: dict[int, list[float]] = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r["final_length"])
    fit = scaling_fit(
        [{"x": n, "y": float(np.mean(v))} for n, v in sorted(by_n.items())], "x", "y"
    )

    sig_grid = np.array([0.1, 0.2, 0.4, 0.6, 0.8, 1.0])
    origins = np.full((200, 2), 0.5)
    means = np.array([
        np.mean([2.0 * mst_length(perturb(origins, s, task_seed(0, 0, si)), "l2")
                 for si in range(30)])
        for s in sig_grid
    ])
    coef = np.polyfit(sig_grid, means, 1)
    resid = means - np.polyval(coef, sig_grid)
    r2_linear = 1.0 - float(resid.var() / means.var())

    elapsed = time.perf_counter() - t0
    ok = 0.45 <= fit.slope <= 0.55 and r2_linear >= 0.95 and elapsed < 600.0
    _report(capsys, 7, "tour-length scaling", ok,
            f"slope {fit.slope:.4f} (R2 {fit.r_squared:.4f}), "
            f"sigma-linearity R2 {r2_linear:.6f}, {elapsed:.1f}s")
    assert ok


# criterion 8: paired worst-ratio experiment at n=12 over the default sigma
# grid; every ratio >= 1 - 1e-9 and the mean curve is non-increasing in sigma
# up to one grid-point violation of at most 2%; the curve itself is reported
def test_criterion_08_approximation_ratio_trend(capsys):
    t0 = time.perf_counter()
    sigmas = (0.01, 0.03, 0.1, 0.3, 1.0)
    rows = ratio_experiment(12, sigmas, restarts=50, seeds=50, base_seed=0)
    ratios = np.array([r["ratio"] for r in rows]).reshape(len(sigmas), 50)
    means = ratios.mean(axis=1)
    min_ratio = float(ratios.min())
    increases = [
        (i, (means[i] - means[i - 1]) / means[i - 1])
        for i in range(1, len(sigmas))
        if means[i] > means[i - 1]
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        min_ratio >= 1.0 - 1e-9
        and len(increases) <= 1
        and all(bump <= 0.02 for _, bump in increases)
    )
    curve = ", ".join(f"{s:g}:{m:.4f}" for s, m in zip(sigmas, means))
    _report(capsys, 8, "approximation-ratio trend", ok,
            f"min ratio {min_ratio:.6f}, curve [{curve}], "
            f"{len(increases)} increase(s), {elapsed:.1f}s")
    assert ok


# criterion 9: layered construction at p=3, t=1, sigma=1e-4 over 50 seeds --
# containers hold in at least 45, every passing seed certifies at 1e-12, the
# unperturbed tours for t in {1,3} certify at 1e-15, and the certified ratio
# bound strictly increases from t=1 to t=3; under five minutes
def test_criterion_09_lower_bound_construction(capsys):
    t0 = time.perf_counter()
    li1 = build_layered(3, sigma=1e-4, t=1)
    contained = 0
    certified = 0
    for seed in range(50):
        inst = li1.perturbed(seed)
        ok_c, _ = check_containers(li1, inst)
        if not ok_c:
            continue
        contained += 1
        tour = build_long_tour(li1, inst)
        if certify_two_optimality(inst.points, tour, "l2", 1e-12) is None:
            certified += 1

    exact1 = build_layered(3, sigma=0.0, t=1)
    exact3 = build_layered(3, sigma=0.0, t=3)
    unperturbed_ok = all(
        certify_two_optimality(li.unperturbed().points, build_long_tour(li), "l2", 1e-15) is None
        for li in (exact1, exact3)
    )
    r1, r3 = ratio_lower_bound(exact1), ratio_lower_bound(exact3)

    elapsed = time.perf_counter() - t0
    ok = (
        contained >= 45
        and certified == contained
        and unperturbed_ok
        and r3 > r1
        and elapsed < 300.0
    )
    _report(capsys, 9, "perturbed lower-bound instance", ok,
            f"containers {contained}/50, certified {certified}/{contained}, "
            f"ratio {r1:.5f} -> {r3:.5f}, {elapsed:.1f}s")
    assert ok


# criterion 10: the same sweep config run twice writes byte-identical CSV
def test_criterion_10_sweep_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg_text = (
        "n = 8, 14, 40\n"
        "sigma = 0.05, 0.5\n"
        "metric = l1, l2\n"
        "seeds = 3\n"
        "base_seed = 9\n"
        "linked = true\n"
    )
    # width 1 computes the rows in the caller, wider sweeps in worker processes
    blobs = []
    for width in (1, 2, 4):
        path = tmp_path / f"width{width}.csv"
        write_csv(run_sweep(parse_config(cfg_text), threads=width), str(path), ROW_COLUMNS)
        blobs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    b1 = blobs[0]
    ok = blobs.count(b1) == 3 and len(b1.splitlines()) == 1 + 36
    _report(capsys, 10, "sweep determinism", ok,
            f"{len(b1)} bytes, identical across runs and widths 1, 2, 4, {elapsed:.1f}s")
    assert ok
