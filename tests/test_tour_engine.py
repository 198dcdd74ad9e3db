"""Tour mechanics, 2-opt execution, and the linked-pair machinery."""

import itertools
import json
import math

import numpy as np
import pytest
import scan_oracle
import scipy.optimize
import twoptlab.tour
from hypothesis import given, settings
from hypothesis import strategies as st

from twoptlab import (
    LinkedPairType,
    Metric,
    Tour,
    TwoChange,
    apply_two_change,
    certify_two_optimality,
    classify_linked_pair,
    count_disjoint_linked_pairs,
    find_improving,
    held_karp,
    initial_tour,
    linked_pair_bound,
    make_origins,
    min_improvement,
    pairwise_distances,
    perturb,
    run_two_opt,
    tour_length,
    two_change_gain,
)
from twoptlab.geometry import vec_dist
from twoptlab.tour import _make_change, _max_matching

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
# vertex order 0,1,2,3 over these coordinates walks both diagonals
CROSSING = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def _random_instance(n, seed, sigma=0.3):
    return perturb(make_origins("uniform", n, 2, seed), sigma, seed)


# ---------------------------------------------------------------------------
# Tour


def test_tour_canonical_rotation():
    t = Tour.from_order([2, 3, 0, 1], metric="l2")
    assert list(t.order) == [0, 1, 2, 3]
    assert t.n == 4


def test_tour_rejects_non_permutations():
    with pytest.raises(ValueError):
        Tour.from_order([0, 1, 1, 2], metric="l2")
    with pytest.raises(ValueError):
        Tour.from_order([0, 1], metric="l2")
    with pytest.raises(ValueError):
        Tour.from_order([0, 1, 4], metric="l2")


def test_non_tours_are_rejected():
    # a repeated vertex, a short order, or a tour over other points must not
    # pass for a tour: as one it would measure 0.0 or certify "2-optimal"
    pts = make_origins("uniform", 8, 2, 0)
    for order in ([0] * 8, [0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 8], list(range(9))):
        with pytest.raises(ValueError, match="permutation"):
            tour_length(order, pts)
        with pytest.raises(ValueError, match="permutation"):
            certify_two_optimality(pts, order)
    with pytest.raises(ValueError, match="permutation"):
        Tour.from_order([0, 0, 0, 0])
    other = Tour.from_order(range(4))
    with pytest.raises(ValueError, match="permutation"):
        tour_length(other, pts)
    with pytest.raises(ValueError, match="permutation"):
        find_improving(other, pts)
    # vertex ids must be integers: a float, fractional or integral, or a
    # string is refused, not truncated or parsed into a vertex
    pts = make_origins("uniform", 6, 2, 0)
    for order in ([0, 2.9, 1, 3, 4, 5], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [str(v) for v in range(6)]):
        with pytest.raises(ValueError, match="integer vertex ids"):
            tour_length(order, pts)
        with pytest.raises(ValueError, match="integer vertex ids"):
            certify_two_optimality(pts, order)
        with pytest.raises(ValueError, match="integer vertex ids"):
            Tour.from_order(order)


def test_certify_keeps_the_callers_positions():
    # the order is checked, not rotated: i and j index the order as passed
    order = [2, 3, 0, 1]
    violation = certify_two_optimality(CROSSING, order, "l2")
    assert violation is not None
    i, j = violation.i, violation.j
    assert violation.removed == ((order[i], order[i + 1]), (order[j], order[(j + 1) % 4]))


def test_tour_positions_and_edges():
    t = Tour.from_order([0, 2, 1, 3], metric="l2")
    pos = t.positions()
    assert [pos[v] for v in (0, 2, 1, 3)] == [0, 1, 2, 3]
    assert set(t.edges()) == {(0, 2), (2, 1), (1, 3), (3, 0)}


def test_tour_length_square_perimeter():
    assert tour_length([0, 1, 2, 3], SQUARE, Metric.EUCLIDEAN) == pytest.approx(4.0)


def test_tour_length_reversal_invariant():
    inst = _random_instance(6, 1)
    fwd = tour_length([0, 1, 2, 3, 4, 5], inst, "l2")
    rev = tour_length([0, 5, 4, 3, 2, 1], inst, "l2")
    assert fwd == pytest.approx(rev)


def test_tour_length_matches_naive_resummation():
    inst = _random_instance(6, 2)
    order = [3, 0, 5, 1, 4, 2]
    for m in Metric:
        naive = 0.0
        for k in range(6):
            a = inst.points[order[k]]
            b = inst.points[order[(k + 1) % 6]]
            if m is Metric.MANHATTAN:
                naive += abs(a - b).sum()
            elif m is Metric.EUCLIDEAN:
                naive += math.hypot(*(a - b))
            else:
                naive += ((a - b) ** 2).sum()
        assert tour_length(order, inst, m) == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# initial_tour


def test_initial_tour_random_n3_is_triangle():
    inst = _random_instance(3, 3)
    t = initial_tour(inst, "l2", rule="random", seed=9)
    perim = tour_length([0, 1, 2], inst, "l2")
    assert tour_length(t.order, inst, "l2") == pytest.approx(perim)


def test_initial_tour_nearest_neighbor_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
    t = initial_tour(pts, "l2", rule="nearest_neighbor", seed=0)
    assert list(t.order) == [0, 1, 2, 3]


def test_initial_tour_greedy_insertion_unit_square():
    t = initial_tour(SQUARE, "l2", rule="greedy_insertion", seed=0)
    assert tour_length(t.order, SQUARE, "l2") == pytest.approx(4.0)


def test_initial_tour_rule_aliases_and_determinism():
    inst = _random_instance(10, 4)
    a = initial_tour(inst, "l2", rule="nn", seed=5)
    b = initial_tour(inst, "l2", rule="nearest_neighbor", seed=5)
    assert np.array_equal(a.order, b.order)
    r1 = initial_tour(inst, "l2", rule="random", seed=5)
    r2 = initial_tour(inst, "l2", rule="random", seed=5)
    assert np.array_equal(r1.order, r2.order)
    with pytest.raises(ValueError):
        initial_tour(inst, "l2", rule="christofides", seed=0)


# ---------------------------------------------------------------------------
# find_improving / apply_two_change


def test_find_improving_uncrosses_the_square():
    t = Tour.from_order([0, 1, 2, 3], metric="l2")
    ch = find_improving(t, CROSSING, "l2", pivot="first")
    assert ch is not None
    assert ch.gain == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)
    assert set(map(frozenset, ch.removed)) == {frozenset((0, 1)), frozenset((2, 3))}


def test_find_improving_none_on_convex_position():
    angles = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t = Tour.from_order(list(range(9)), metric="l2")
    for pivot in ("first", "best", "random"):
        assert find_improving(t, pts, "l2", pivot=pivot, seed=3) is None


def test_find_improving_best_returns_max_gain():
    # at 1e6 the coordinates' rounding reaches the gains' last bits, so the
    # maximum is exact only if every path computes the gain the same way
    inst = _random_instance(12, 7)
    for metric, scale in itertools.product(("l1", "l2", "l2sq"), (1.0, 1e6)):
        pts = scale * inst.points
        t = initial_tour(pts, metric, rule="random", seed=7)
        best = find_improving(t, pts, metric, pivot="best")
        # oracle: enumerate every candidate pair directly
        gains = []
        order = list(t.order)
        n = len(order)
        for i in range(n - 2):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                g = two_change_gain(
                    pts[order[i]], pts[order[i + 1]],
                    pts[order[j]], pts[order[(j + 1) % n]], metric,
                )
                gains.append(g)
        assert best is not None
        assert best.gain == max(gains), (metric, scale)


def test_find_improving_random_is_seeded_and_improving():
    inst = _random_instance(12, 8)
    t = initial_tour(inst, "l2", rule="random", seed=8)
    a = find_improving(t, inst, "l2", pivot="random", seed=1)
    b = find_improving(t, inst, "l2", pivot="random", seed=1)
    c = find_improving(t, inst, "l2", pivot="random", seed=2)
    assert a is not None and a.gain > 1e-12
    assert a == b
    assert c is not None and c.gain > 1e-12


def test_apply_two_change_square_and_involution():
    t = Tour.from_order([0, 1, 2, 3], metric="l2")
    ch = find_improving(t, CROSSING, "l2", pivot="first")
    after = apply_two_change(t, ch)
    assert tour_length(after.order, CROSSING, "l2") == pytest.approx(4.0)
    assert find_improving(after, CROSSING, "l2", pivot="first") is None
    back = apply_two_change(after, ch.inverse())
    assert np.array_equal(back.order, t.order)


def test_apply_two_change_length_bookkeeping():
    inst = _random_instance(15, 9)
    t = initial_tour(inst, "l2", rule="random", seed=9)
    t.cached_length = tour_length(t.order, inst, "l2")
    ch = find_improving(t, inst, "l2", pivot="best")
    after = apply_two_change(t, ch)
    assert after.cached_length == pytest.approx(t.cached_length - ch.gain, rel=1e-9)
    assert after.cached_length == pytest.approx(tour_length(after.order, inst, "l2"), rel=1e-9)


def test_apply_two_change_rejects_absent_edges():
    t = Tour.from_order([0, 1, 2, 3, 4], metric="l2")
    bogus = TwoChange(removed=((0, 2), (1, 3)), added=((0, 1), (2, 3)), gain=0.1)
    with pytest.raises(ValueError):
        apply_two_change(t, bogus)


def test_apply_two_change_rejects_adjacent_edges():
    # edges at adjacent positions, at positions 0 and n-1, or at one position
    # share a vertex
    t = Tour.from_order([0, 1, 2, 3, 4], metric="l2")
    for removed in (((0, 1), (1, 2)), ((4, 0), (0, 1)), ((2, 3), (3, 2))):
        degenerate = TwoChange(removed=removed, added=removed, gain=0.0)
        with pytest.raises(ValueError, match="not disjoint"):
            apply_two_change(t, degenerate)


def test_apply_two_change_reads_edges_in_either_direction_and_order():
    t = Tour.from_order([0, 1, 2, 3, 4, 5], metric="l2")
    want = apply_two_change(t, TwoChange(removed=((0, 1), (3, 4)), added=((0, 3), (1, 4)), gain=0.5))
    assert want.order.tolist() == [0, 3, 2, 1, 4, 5] and want.cached_length is None
    for e1, e2 in itertools.product(((0, 1), (1, 0)), ((3, 4), (4, 3))):
        for removed, added in (((e1, e2), ((0, 3), (1, 4))), ((e2, e1), ((4, 1), (3, 0)))):
            got = apply_two_change(t, TwoChange(removed=removed, added=added, gain=0.5))
            assert np.array_equal(got.order, want.order), removed
    for removed, added, message in [
        (((0, 1), (3, 6)), ((0, 3), (1, 6)), "outside the tour"),
        (((-1, 0), (2, 3)), ((-1, 2), (0, 3)), "outside the tour"),
        (((0, 1), (3, 4)), ((0, 4), (1, 3)), "do not reconnect"),
        (((0, 1), (3, 4)), ((0, 3), (1, 5)), "do not reconnect"),
    ]:
        with pytest.raises(ValueError, match=message):
            apply_two_change(t, TwoChange(removed=removed, added=added, gain=0.5))


# ---------------------------------------------------------------------------
# run_two_opt


def test_run_square_from_crossing_start():
    rec = run_two_opt(CROSSING, "l2", init="random", pivot="first", seed=1, keep_changes=True)
    assert rec.final_length == pytest.approx(4.0)
    assert rec.converged
    # from the crossing start exactly one move is needed; a lucky random
    # start may already be the perimeter
    assert rec.iterations in (0, 1)
    assert len(rec.changes) == rec.iterations


def test_run_crossing_start_one_iteration():
    rec = run_two_opt(CROSSING, "l2", init="nearest_neighbor", pivot="first", seed=0)
    # nearest-neighbor from 0 on these coordinates builds 0,2,1,3 = perimeter
    assert rec.iterations in (0, 1)
    assert rec.final_length == pytest.approx(4.0)


def test_run_final_at_least_optimal_n8():
    for seed in range(5):
        inst = _random_instance(8, 20 + seed)
        rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=seed)
        opt = held_karp(inst, "l2").length
        assert rec.final_length >= opt - 1e-9


def test_run_record_invariants():
    inst = _random_instance(30, 11)
    for pivot in ("first", "best", "random"):
        rec = run_two_opt(inst, "l2", init="random", pivot=pivot, seed=11, keep_changes=True)
        assert rec.iterations == len(rec.changes)
        assert rec.converged
        total_gain = sum(ch.gain for ch in rec.changes)
        assert rec.final_length == pytest.approx(rec.initial_length - total_gain, rel=1e-9)
        assert all(ch.gain > rec.eps for ch in rec.changes)
        assert rec.min_gain_observed == pytest.approx(min(ch.gain for ch in rec.changes))
        # post-run scan is clean: the runner's own certificate
        t = Tour.from_order(rec.final_order, metric="l2")
        assert find_improving(t, inst, "l2", pivot="first", eps=rec.eps) is None


def test_run_recorded_gains_match_delta_identity():
    inst = _random_instance(20, 12)
    rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=12, keep_changes=True)
    pts = inst.points
    for ch in rec.changes:
        (x1, x2), (x3, x4) = ch.removed
        g = two_change_gain(pts[x1], pts[x2], pts[x3], pts[x4], "l2")
        assert ch.gain == g


def test_run_lengths_strictly_decrease():
    inst = _random_instance(25, 13)
    rec = run_two_opt(inst, "l2", init="random", pivot="random", seed=13, keep_changes=True)
    length = rec.initial_length
    for ch in rec.changes:
        assert ch.gain > 1e-12
        length -= ch.gain
    assert length == pytest.approx(rec.final_length, rel=1e-9)


def test_run_max_iter_flags_non_convergence():
    inst = _random_instance(60, 14)
    rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=14, max_iter=3)
    assert not rec.converged
    assert rec.iterations == 3


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
def test_out_of_range_eps_is_rejected(eps):
    # eps <= 0 lets zero-gain changes cycle forever, and nan makes every
    # gain comparison false, so a run would "converge" without a scan
    square = Tour.from_order([0, 1, 2, 3])
    with pytest.raises(ValueError, match="eps"):
        run_two_opt(CROSSING, "l2", eps=eps)
    with pytest.raises(ValueError, match="eps"):
        find_improving(square, CROSSING, "l2", eps=eps)
    with pytest.raises(ValueError, match="eps"):
        certify_two_optimality(CROSSING, square, "l2", eps)


@pytest.mark.parametrize("n, seed, pivot", [(12, 0, "first"), (30, 1, "best")])
def test_run_that_would_undo_its_last_change_raises(n, seed, pivot):
    # at 1e6 the l1 gains of a 2-change and of its inverse are both rounding
    # residues above eps = 1e-12, so the run would flip between two tours
    pts = 1e6 * _random_instance(n, seed).points
    with pytest.raises(ValueError, match="rounding level"):
        run_two_opt(pts, "l1", pivot=pivot, seed=seed, max_iter=3000)


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "_gain sums (el_i + el_j) - d13 - d24 left to right, so at large scales a "
    "2-change and its inverse can both gain > eps and the undo guard raises"))
def test_large_scale_runs_converge_without_cycling():
    # wanted: every run of this 216-run corpus converges and none raises
    for scale, metric, pivot, seed, n in itertools.product(
            (1e6, 1e8, 1e10), ("l1", "l2", "l2sq"), ("first", "best"), range(6), (12, 30)):
        pts = scale * _random_instance(n, seed).points
        rec = run_two_opt(pts, metric, pivot=pivot, seed=seed, max_iter=3000, keep_changes=False)
        assert rec.converged, (scale, metric, pivot, seed, n)


def test_negative_max_iter_is_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        run_two_opt(CROSSING, "l2", max_iter=-1)


def test_run_two_opt_deterministic_given_seed():
    inst = _random_instance(18, 15)
    a = run_two_opt(inst, "l2", init="random", pivot="random", seed=15)
    b = run_two_opt(inst, "l2", init="random", pivot="random", seed=15)
    assert np.array_equal(a.final_order, b.final_order)
    assert a.final_length == b.final_length


def test_run_record_json_round_trip_fields():
    inst = _random_instance(10, 16)
    rec = run_two_opt(inst, "l2", init="nn", pivot="best", seed=16, keep_changes=True)
    doc = json.loads(rec.to_json(include_changes=True))
    assert doc["iterations"] == rec.iterations
    assert doc["final_length"] == rec.final_length
    assert len(doc["changes"]) == rec.iterations
    slim = json.loads(rec.to_json())
    assert slim.get("changes") is None


def test_run_record_json_key_order():
    rec = run_two_opt(_random_instance(8, 3), "l2", seed=3)
    assert list(json.loads(rec.to_json())) == [
        "seed", "metric", "pivot", "init", "n", "eps", "initial_length",
        "final_length", "iterations", "min_gain_observed", "converged",
        "final_order",
    ]


# ---------------------------------------------------------------------------
# certification and min_improvement


def test_certify_crossing_square_violation():
    v = certify_two_optimality(CROSSING, [0, 1, 2, 3], "l2", 1e-12)
    assert v is not None
    assert v.gain == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)


def test_certify_convex_hull_order_clean():
    angles = np.linspace(0.0, 2.0 * math.pi, 11, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert certify_two_optimality(pts, list(range(11)), "l2", 1e-12) is None


def test_min_improvement_requires_n4():
    with pytest.raises(ValueError):
        min_improvement(np.zeros((3, 2)), "l2")


@pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0])
def test_min_improvement_rejects_out_of_range_eps(eps):
    # nan reported "no quadruple improves"; -1 a negative smallest gain
    with pytest.raises(ValueError, match="eps"):
        min_improvement(make_origins("uniform", 6, 2, 0), "l2", eps)


def test_min_improvement_unit_square():
    assert min_improvement(SQUARE, "l2") == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)


def test_min_improvement_none_when_no_gain_exists():
    # regular tetrahedron: all six pairwise distances equal, every quadruple
    # gain is exactly zero
    tet = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    assert min_improvement(tet, "l2") is None


def test_min_improvement_matches_brute_enumeration():
    inst = _random_instance(10, 17)
    pts = inst.points
    for m in ("l1", "l2", "l2sq"):
        best = None
        for a, b, c, d in itertools.permutations(range(10), 4):
            g = two_change_gain(pts[a], pts[b], pts[c], pts[d], m)
            if g > 1e-12 and (best is None or g < best):
                best = g
        got = min_improvement(pts, m)
        assert got == best


def test_min_improvement_rigid_motion_invariance():
    inst = _random_instance(8, 18)
    pts = inst.points
    theta = 0.73
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = pts @ rot.T + np.array([5.0, -2.0])
    assert min_improvement(moved, "l2") == pytest.approx(min_improvement(pts, "l2"), rel=1e-9)
    shifted = pts + np.array([1.25, -0.5])
    assert min_improvement(shifted, "l1") == pytest.approx(min_improvement(pts, "l1"), rel=1e-9)


def test_iteration_bound_pointwise():
    for seed in range(10):
        inst = _random_instance(9, 40 + seed)
        rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=seed)
        dmin = min_improvement(inst, "l2")
        if dmin is not None:
            assert rec.iterations <= rec.initial_length / dmin


# ---------------------------------------------------------------------------
# linked pairs


def _mk(removed, added):
    return TwoChange(removed=tuple(removed), added=tuple(added), gain=1.0)


def test_classify_type0_six_distinct_vertices():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (5, 6)], [(1, 5), (3, 6)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.TYPE_0


def test_classify_type1a_five_vertices_single_link():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (2, 5)], [(1, 5), (2, 3)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.TYPE_1A


def test_classify_type1b_five_vertices_double_link():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (2, 4)], [(1, 2), (3, 4)])
    # shares both added edges (removed again): only four vertices -> type 2,
    # so build a genuine five-vertex doubly-linked pair instead
    c2 = _mk([(1, 3), (2, 5)], [(1, 2), (3, 5)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.TYPE_1B


def test_classify_type2_four_vertices():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (2, 4)], [(1, 4), (2, 3)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.TYPE_2


def test_classify_not_linked():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(5, 6), (7, 8)], [(5, 7), (6, 8)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.NOT_LINKED


def test_classify_orientation_invariant():
    c1 = _mk([(2, 1), (4, 3)], [(3, 1), (4, 2)])
    c2 = _mk([(3, 1), (6, 5)], [(5, 1), (6, 3)])
    assert classify_linked_pair(c1, c2) is LinkedPairType.TYPE_0
    assert classify_linked_pair(c2, c1) is LinkedPairType.TYPE_0


def test_linked_pair_bound_arithmetic():
    # the formula is kept as-is: short runs yield vacuous (negative) bounds
    assert linked_pair_bound(100, 50) == 9   # ceil(100/7 - 150/28)
    assert linked_pair_bound(0, 50) == -5
    assert linked_pair_bound(7, 28) == -2    # ceil(1 - 3)
    assert linked_pair_bound(70, 28) == 7    # ceil(10 - 3)


def test_count_disjoint_empty():
    count, pairs = count_disjoint_linked_pairs([])
    assert count == 0 and pairs == []


def test_count_disjoint_single_pair():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (5, 6)], [(1, 5), (3, 6)])
    count, pairs = count_disjoint_linked_pairs([c1, c2])
    assert count == 1 and pairs == [(0, 1)]


def test_count_disjoint_excludes_type2():
    c1 = _mk([(1, 2), (3, 4)], [(1, 3), (2, 4)])
    c2 = _mk([(1, 3), (2, 4)], [(1, 4), (2, 3)])
    count, _ = count_disjoint_linked_pairs([c1, c2])
    assert count == 0


def test_count_disjoint_on_recorded_run():
    inst = _random_instance(50, 19)
    rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=19, keep_changes=True)
    assert rec.iterations >= 100  # enough moves for the t=100-style bound
    count, pairs = count_disjoint_linked_pairs(rec.changes, n=50)
    assert count >= linked_pair_bound(rec.iterations, 50)
    # certificate validity: selected pairs are classified 0/1 and share no change
    used = set()
    for i, j in pairs:
        kind = classify_linked_pair(rec.changes[i], rec.changes[j])
        assert kind in (LinkedPairType.TYPE_0, LinkedPairType.TYPE_1A, LinkedPairType.TYPE_1B)
        assert i not in used and j not in used
        used.update((i, j))


def test_count_disjoint_methods_agree_on_small_runs():
    inst = _random_instance(12, 21)
    rec = run_two_opt(inst, "l2", init="random", pivot="first", seed=21, keep_changes=True)
    if rec.iterations < 2:
        pytest.skip("degenerate run")
    greedy, _ = count_disjoint_linked_pairs(rec.changes, method="greedy")
    exact, _ = count_disjoint_linked_pairs(rec.changes, method="exact")
    assert greedy <= exact


def _assert_maximum_matching(t, pairs):
    picked = _max_matching(t, pairs)
    assert picked == sorted(picked) and set(picked) <= set(pairs)
    ends = [c for pair in picked for c in pair]
    assert len(ends) == len(set(ends))  # no change in two pairs
    assert len(picked) == scan_oracle.max_matching_size(pairs)
    assert _max_matching(t, pairs) == picked
    return picked


@pytest.mark.parametrize("t, pairs, size", [
    (3, [(0, 1), (0, 2), (1, 2)], 1),
    (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)], 2),
    (6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)], 3),
    (4, [(0, 1), (0, 2), (1, 3)], 2),  # lexicographic greedy takes (0, 1) and stops at 1
], ids=["triangle", "5-cycle", "two-triangles-and-a-bridge", "greedy-falls-short"])
def test_max_matching_on_hand_made_graphs(t, pairs, size):
    assert len(_assert_maximum_matching(t, pairs)) == size


def test_max_matching_on_random_graphs():
    rng = np.random.default_rng(26)
    for _ in range(60):
        t = int(rng.integers(2, 13))
        density = rng.uniform(0.1, 0.7)
        pairs = [(i, j) for i, j in itertools.combinations(range(t), 2) if rng.random() < density]
        _assert_maximum_matching(t, pairs)


def test_max_matching_of_no_pairs_calls_no_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("milp called")

    monkeypatch.setattr(scipy.optimize, "milp", no_solver)
    assert _max_matching(4, []) == []
    assert count_disjoint_linked_pairs([], method="exact") == (0, [])


def _lexicographic_greedy(pairs):
    used, picked = set(), []
    for i, j in pairs:
        if i not in used and j not in used:
            picked.append((i, j))
            used.update((i, j))
    return picked


_RECORDED = [(pivot, method) for method in ("exact", "greedy", "auto")
             for pivot in ("first", "best", "random")]


@pytest.mark.parametrize("pivot, method", _RECORDED, ids=[
    pivot if method == "exact" else f"{pivot}-{method}" for pivot, method in _RECORDED])
def test_exact_count_is_maximum_on_recorded_runs(pivot, method):
    # the counter finds its candidates through an index of removed edges; the
    # all-pairs list here shows that the index misses no linked pair
    inst = _random_instance(12, 21)
    rec = run_two_opt(inst, "l2", init="random", pivot=pivot, seed=21, keep_changes=True)
    linked = [
        (i, j) for i, j in itertools.combinations(range(rec.iterations), 2)
        if classify_linked_pair(rec.changes[i], rec.changes[j])
        in (LinkedPairType.TYPE_0, LinkedPairType.TYPE_1A, LinkedPairType.TYPE_1B)
    ]
    count, pairs = count_disjoint_linked_pairs(rec.changes, n=12, method=method)
    if method == "exact":
        assert pairs == _assert_maximum_matching(rec.iterations, linked)
    else:
        assert pairs == _lexicographic_greedy(linked)
    assert count == len(pairs)


def test_auto_count_turns_exact_only_below_the_bound_on_short_runs(monkeypatch):
    inst = _random_instance(12, 21)
    changes = run_two_opt(inst, "l2", init="random", seed=21, keep_changes=True).changes
    t = len(changes)
    greedy = count_disjoint_linked_pairs(changes, method="greedy")
    exact = count_disjoint_linked_pairs(changes, method="exact")
    assert greedy[0] < exact[0]  # so each answer below shows which matching ran
    assert count_disjoint_linked_pairs(changes, n=12) == greedy  # greedy meets the bound
    monkeypatch.setattr(twoptlab.tour, "linked_pair_bound", lambda t, n: t)  # a bound no matching meets
    assert count_disjoint_linked_pairs(changes) == greedy  # no n, no bound
    assert count_disjoint_linked_pairs(changes, n=12) == exact
    assert count_disjoint_linked_pairs(changes, n=12, exhaustive_limit=t - 1) == greedy
    assert count_disjoint_linked_pairs(changes, n=12, method="greedy") == greedy


# ---------------------------------------------------------------------------
# randomized end-to-end property


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31),
    pivot=st.sampled_from(["first", "best", "random"]),
    metric=st.sampled_from(["l1", "l2", "l2sq"]),
)
def test_runs_always_end_two_optimal(n, seed, pivot, metric):
    inst = _random_instance(n, seed)
    rec = run_two_opt(inst, metric, init="random", pivot=pivot, seed=seed)
    assert certify_two_optimality(inst.points, rec.final_order, metric, 1e-12) is None


def _degenerate_points(layout, n, seed):
    origins = make_origins("grid", n, 2, seed)
    if layout == "coincident":
        origins = origins[np.arange(n) // 2]  # every point has a twin
    return perturb(origins, 1e-12 if layout == "sigma=1e-12" else 0.0, seed).points


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
    metric=st.sampled_from(["l1", "l2", "l2sq"]),
    layout=st.sampled_from(["grid", "coincident", "sigma=1e-12"]),
)
def test_matrix_and_coordinate_scans_agree(n, seed, metric, layout):
    # The engine reads gains from the distance matrix, the certifier from
    # coordinates; on degenerate layouts they must still agree bit for bit.
    pts = _degenerate_points(layout, n, seed)
    D = pairwise_distances(pts, metric)
    assert np.array_equal(D, vec_dist(pts[:, None, :], pts[None, :, :], metric))
    tour = Tour.from_order(np.random.default_rng(seed).permutation(n))
    change = find_improving(tour, pts, metric, pivot="best")
    violation = certify_two_optimality(pts, tour, metric)
    assert change == (None if violation is None else
                      _make_change(tour.order, violation.i, violation.j, violation.gain))
    for pivot in ("first", "best", "random"):
        rec = run_two_opt(pts, metric, pivot=pivot, seed=seed)
        assert rec.converged
        assert certify_two_optimality(pts, rec.final_order, metric) is None
