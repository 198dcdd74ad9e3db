"""Ground-truth solvers, the MST bound, and the 2-opt-maximum estimator."""

import math

import numpy as np
import pytest

from twoptlab import (
    Metric,
    brute_force,
    edge_length_histogram,
    estimate_two_opt_max,
    held_karp,
    make_origins,
    mst_length,
    perturb,
    tour_length,
)
from twoptlab.exact import OVERFLOW_BIN

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _random_instance(n, seed, sigma=0.3):
    return perturb(make_origins("uniform", n, 2, seed), sigma, seed)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_square_perimeter():
    res = brute_force(SQUARE, "l2")
    assert res.length == pytest.approx(4.0)
    assert res.algorithm == "brute"
    assert tour_length(res.tour.order, SQUARE, "l2") == pytest.approx(res.length)


def test_brute_force_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    res = brute_force(pts, "l2")
    assert res.length == pytest.approx(1.0 + 2.0 + math.sqrt(5.0))


def test_brute_force_pentagon_hull_order():
    angles = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    res = brute_force(pts, "l2")
    assert res.length == pytest.approx(5.0 * 2.0 * math.sin(math.pi / 5.0))
    # the optimal order walks the circle
    order = list(res.tour.order)
    diffs = [(order[(k + 1) % 5] - order[k]) % 5 for k in range(5)]
    assert diffs == [1] * 5 or diffs == [4] * 5


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force(np.zeros((12, 2)), "l2")


# ---------------------------------------------------------------------------
# Held-Karp


def test_held_karp_square_all_metrics():
    assert held_karp(SQUARE, "l2").length == pytest.approx(4.0)
    assert held_karp(SQUARE, "l1").length == pytest.approx(4.0)
    # squared euclidean: sides cost 1 each, diagonals 2 each
    assert held_karp(SQUARE, "l2sq").length == pytest.approx(4.0)


def test_held_karp_matches_brute_force():
    for seed in range(10):
        n = 5 + seed % 6
        inst = _random_instance(n, 100 + seed)
        for m in Metric:
            hk = held_karp(inst, m).length
            bf = brute_force(inst, m).length
            assert abs(hk - bf) <= 1e-9 * max(1.0, bf)


def test_held_karp_tour_is_consistent():
    inst = _random_instance(9, 3)
    res = held_karp(inst, "l2")
    assert res.algorithm == "heldkarp"
    assert tour_length(res.tour.order, inst, "l2") == pytest.approx(res.length, rel=1e-12)
    assert res.elapsed >= 0.0


def test_held_karp_size_cap():
    with pytest.raises(ValueError):
        held_karp(np.zeros((21, 2)), "l2")


# ---------------------------------------------------------------------------
# MST


def test_mst_unit_square():
    assert mst_length(SQUARE, "l2") == pytest.approx(3.0)


def test_mst_two_points():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert mst_length(pts, "l2") == pytest.approx(5.0)
    assert mst_length(pts, "l1") == pytest.approx(7.0)


def test_mst_tsp_sandwich():
    for seed in range(5):
        inst = _random_instance(8, 200 + seed)
        for m in (Metric.MANHATTAN, Metric.EUCLIDEAN):
            mst = mst_length(inst, m)
            opt = held_karp(inst, m).length
            assert mst <= opt + 1e-9
            assert opt <= 2.0 * mst + 1e-9


# ---------------------------------------------------------------------------
# estimate_two_opt_max


def test_estimator_single_restart_is_one_local_optimum():
    inst = _random_instance(10, 4)
    one = estimate_two_opt_max(inst, "l2", restarts=1, seed=4)
    opt = held_karp(inst, "l2").length
    assert one >= opt - 1e-9


def test_estimator_unit_square_returns_4():
    assert estimate_two_opt_max(SQUARE, "l2", restarts=3, seed=0) == pytest.approx(4.0)


def test_estimator_monotone_in_restarts():
    inst = _random_instance(12, 5)
    values = [estimate_two_opt_max(inst, "l2", restarts=r, seed=5) for r in (1, 5, 20, 50)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_estimator_dominates_optimum():
    for seed in range(5):
        inst = _random_instance(11, 300 + seed)
        est = estimate_two_opt_max(inst, "l2", restarts=10, seed=seed)
        opt = held_karp(inst, "l2").length
        assert est / opt >= 1.0 - 1e-9


def test_estimator_is_one_on_convex_position():
    angles = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    est = estimate_two_opt_max(pts, "l2", restarts=20, seed=1)
    opt = held_karp(pts, "l2").length
    assert est == pytest.approx(opt, rel=1e-12)


# ---------------------------------------------------------------------------
# edge-length histogram


def test_histogram_of_optimal_tour():
    inst = _random_instance(9, 6)
    res = held_karp(inst, "l2")
    bins = edge_length_histogram(res.tour, inst, "l2")
    assert all(i >= 1 for i, _, _ in bins)
    assert sum(total for _, total, _ in bins) == pytest.approx(res.length, rel=1e-9)
    assert sum(count for _, _, count in bins) == 9


def test_histogram_equal_edges_single_bin():
    bins = edge_length_histogram([0, 1, 2, 3], SQUARE, "l2", opt_length=4.0)
    assert len(bins) == 1
    i, total, count = bins[0]
    assert count == 4 and total == pytest.approx(4.0)
    assert i == 2  # each unit edge: OPT/4 < 1 <= OPT/2


def test_histogram_boundary_goes_to_smaller_bin():
    # an edge of length exactly OPT/2 belongs to [OPT/2, OPT), bin i=1
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    opt = 6.0
    bins = edge_length_histogram([0, 1, 2, 3], pts, "l2", opt_length=opt)
    by_bin = {i: (total, count) for i, total, count in bins}
    # the two length-2 edges: 2 < 6/2^1? no: 2 >= 6/2^2=1.5 and 2 < 6/2=3 -> i=2
    assert by_bin[2][1] == 2
    # length-1 edges: 1 >= 6/8 and 1 < 1.5 -> i=3
    assert by_bin[3][1] == 2
    total_all = sum(t for t, _ in by_bin.values())
    assert total_all == pytest.approx(6.0)


def test_histogram_zero_length_edge_goes_to_overflow_bin():
    # two coincident points; OPT = 2 + sqrt(2), so the other edges land in bin 2
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    bins = edge_length_histogram([0, 1, 2, 3], pts, "l2")
    assert bins == [(2, 2.0 + math.sqrt(2.0), 3), (OVERFLOW_BIN, 0.0, 1)]


def test_histogram_rejects_nonpositive_opt():
    with pytest.raises(ValueError):
        edge_length_histogram([0, 1, 2, 3], SQUARE, "l2", opt_length=0.0)


@pytest.mark.parametrize("opt", [math.inf, math.nan])
def test_histogram_rejects_non_finite_opt(opt):
    with pytest.raises(ValueError, match="finite"):
        edge_length_histogram([0, 1, 2, 3], SQUARE, "l2", opt_length=opt)


def test_histogram_rejects_non_tours():
    for order in ([0, 0, 0, 0], [0, 1, 2], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match="permutation"):
            edge_length_histogram(order, SQUARE, "l2", opt_length=4.0)


def test_histogram_longest_bin_ratio_reported():
    inst = _random_instance(10, 7)
    est_order = held_karp(inst, "l2").tour
    bins = edge_length_histogram(est_order, inst, "l2")
    opt = held_karp(inst, "l2").length
    worst = max(total / opt for _, total, _ in bins)
    assert 0.0 < worst <= 1.0
