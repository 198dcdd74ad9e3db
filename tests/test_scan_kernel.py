"""The shared gain kernel against the reference scan loops in scan_oracle.

Every scan in the package -- the engine's three pivot rules, the certifier
and the layered path 2-opt -- runs through one blocked kernel.  These tests
replay a seeded corpus through both and require identical (i, j, gain)
sequences, identical certifier verdicts and identical tours, bit for bit,
at the kernel's block sizes and at tiny ones that split small instances
into many blocks.  The engine's position matrix must follow every applied
change exactly, and a run must hold no more than one such matrix.  The
coordinate scans evaluate only KD-tree ball candidates on sparse tours; forced
onto that path and onto the blocked kernel, they must both match the
reference loops and each other, random draws included.  The layered
padding path comes from the engine's nearest-neighbour walk and must visit
the points the old path did, in the same order.  The MST,
computed from coordinate rows, must weigh exactly what the reference dense
Prim over the full matrix gives.  Greedy insertion must build the reference
loop's order while holding one distance matrix.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import scan_oracle
import test_tour_engine
import twoptlab.tour
from twoptlab import (
    Tour,
    build_layered,
    build_long_tour,
    certify_two_optimality,
    find_improving,
    initial_tour,
    make_origins,
    mst_length,
    pairwise_distances,
    perturb,
    run_two_opt,
)
from twoptlab import layered
from twoptlab.geometry import vec_dist
from twoptlab.tour import _make_change, _nn_walk, _scan_points

METRICS = ("l1", "l2", "l2sq")
PIVOTS = ("first", "best", "random")
INITS = ("random", "nn", "greedy")
SIZES = (5, 8, 12, 30, 60)


def _corpus(seeds):
    """(n, seed, points): perturbed instances, and exact grids where gains tie."""
    for n, seed in itertools.product(SIZES, seeds):
        yield n, seed, perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
        yield n, seed, make_origins("grid", n, 2, seed)


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Kernel blocks of 16 gains, a first-pivot schedule starting at 4.

    Small instances then take many blocks: a scan crosses block edges, the
    first pivot's blocks grow, and the picked pair can sit in any block.
    """
    monkeypatch.setattr(twoptlab.tour, "_SCAN_BLOCK", 16)
    monkeypatch.setattr(twoptlab.tour, "_SCAN_FIRST", 4)


@pytest.fixture
def pruned_scans(monkeypatch):
    """Coordinate scans evaluate their ball candidates however many there are."""
    monkeypatch.setattr(twoptlab.tour, "_PRUNE_SHARE", math.inf)


@pytest.fixture
def dense_scans(monkeypatch):
    """Coordinate scans run the blocked kernel over every pair."""
    monkeypatch.setattr(twoptlab.tour, "_PRUNE_SHARE", -1.0)


def _check_runs(metric, pivot, init):
    for n, seed, pts in _corpus(range(2)):
        rec = run_two_opt(pts, metric, init=init, pivot=pivot, seed=seed)
        changes, final_order = scan_oracle.run_two_opt(pts, metric, init, pivot, 1e-12, seed)
        assert rec.changes == changes, (n, seed)
        assert rec.final_order == [int(v) for v in final_order], (n, seed)
        assert rec.converged


@pytest.mark.parametrize("metric,pivot,init", itertools.product(METRICS, PIVOTS, INITS))
def test_runs_match_reference_scans(metric, pivot, init):
    _check_runs(metric, pivot, init)


@pytest.mark.parametrize("metric,pivot,init", itertools.product(METRICS, PIVOTS, INITS))
def test_runs_in_tiny_blocks_match_reference_scans(tiny_blocks, metric, pivot, init):
    _check_runs(metric, pivot, init)


def _check_find_improving(metric):
    for n, seed, pts in _corpus(range(4)):
        D = pairwise_distances(pts, metric)
        tour = Tour.from_order(np.random.default_rng(seed).permutation(n))
        for pivot in PIVOTS:
            got = find_improving(tour, pts, metric, pivot=pivot, seed=seed)
            hit = scan_oracle.scan(D, tour.order, pivot, 1e-12, np.random.default_rng(seed))
            want = None if hit is None else _make_change(tour.order, *hit)
            assert got == want, (n, seed, pivot)


@pytest.mark.parametrize("metric", METRICS)
def test_find_improving_matches_reference_scans(metric):
    _check_find_improving(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_find_improving_in_tiny_blocks_matches_reference_scans(tiny_blocks, metric):
    _check_find_improving(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_find_improving_on_pruned_scans_matches_reference_scans(pruned_scans, metric):
    _check_find_improving(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_find_improving_on_dense_scans_matches_reference_scans(dense_scans, metric):
    _check_find_improving(metric)


def _check_certify(metric):
    for n, seed, pts in _corpus(range(4)):
        tours = [
            Tour.from_order(np.random.default_rng(seed).permutation(n)),
            Tour.from_order(run_two_opt(pts, metric, seed=seed).final_order),
        ]
        for tour in tours:
            got = certify_two_optimality(pts, tour, metric)
            want = scan_oracle.certify_scan(pts, tour.order, metric, 1e-12)
            if want is None:
                assert got is None
            else:
                assert (got.gain, got.i, got.j) == want


@pytest.mark.parametrize("metric", METRICS)
def test_certify_matches_reference_loop(metric):
    _check_certify(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_certify_in_tiny_blocks_matches_reference_loop(tiny_blocks, metric):
    _check_certify(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_certify_on_pruned_scans_matches_reference_loop(pruned_scans, metric):
    _check_certify(metric)


@pytest.mark.parametrize("metric", METRICS)
def test_certify_on_dense_scans_matches_reference_loop(dense_scans, metric):
    _check_certify(metric)


def test_matrix_and_coordinate_scans_agree_on_pruned_scans(pruned_scans):
    test_tour_engine.test_matrix_and_coordinate_scans_agree()


def _layout(name, n, seed):
    if name in ("x1e6", "x1e200"):  # at 1e200 the l2 and l2sq distances overflow
        return float(name[1:]) * perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
    if name == "coincident":  # every point has a twin, and grid gains tie
        return make_origins("grid", n, 2, seed)[np.arange(n) // 2]
    dim = {"d1": 1, "d3": 3}[name]
    return perturb(make_origins("uniform", n, dim, seed), 0.3, seed).points


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("layout", ["x1e6", "x1e200", "coincident", "d1", "d3"])
def test_pruned_scan_equals_dense_scan(monkeypatch, layout, metric):
    # the pick and the generator state after it, on a random tour, and on a
    # nearest-neighbour tour and a 2-opt local optimum of the unscaled points
    for n, seed in itertools.product((4, 9, 40, 150), range(3)):
        pts = _layout(layout, n, seed)
        unit = pts / np.abs(pts).max()
        tours = [
            np.random.default_rng(seed).permutation(n),
            initial_tour(unit, metric, "nn").order,
            np.asarray(run_two_opt(unit, metric, seed=seed).final_order),
        ]
        for order, pivot in itertools.product(tours, PIVOTS):
            picks = []
            for share in (math.inf, -1.0):
                monkeypatch.setattr(twoptlab.tour, "_PRUNE_SHARE", share)
                rng = np.random.default_rng(seed)
                picks.append((_scan_points(pts[order], metric, pivot, 1e-12, rng),
                              rng.bit_generator.state))
            assert picks[0] == picks[1], (n, seed, pivot)


@pytest.mark.parametrize("metric", METRICS)
def test_ball_candidates_hold_every_pair_on_or_inside_a_ball(pruned_scans, metric):
    # grids at inexact scales put many pairs exactly on a ball's boundary,
    # d13 == el_i as vec_dist computes them, where the tree's own rounding
    # can differ: the radius margins must keep every such pair
    for (n, dim, seed), scale in itertools.product(((60, 2, 0), (64, 3, 1), (50, 1, 2)),
                                                   (1 / 3, 1e6 / 3)):
        pts = scale * make_origins("grid", n, dim, seed)
        for order in (np.arange(n), np.random.default_rng(seed).permutation(n)):
            p = pts[order]
            pn = np.roll(p, -1, axis=0)
            el = vec_dist(p, pn, metric)
            i, j = np.triu_indices(n, 2)
            pairs = (i != 0) | (j != n - 1)  # (0, n-1) is adjacent on the closed tour
            i, j = i[pairs], j[pairs]
            inside = (vec_dist(p[i], p[j], metric) <= el[i]) | (vec_dist(pn[i], pn[j], metric) <= el[j])
            keys = twoptlab.tour._ball_keys(p, pn, el, metric)
            assert np.isin((i * n + j)[inside], keys).all(), (n, dim, scale)


def test_certify_convex_position_without_the_blocked_kernel(monkeypatch):
    # a tour in convex position is 2-optimal, and each point's balls hold
    # only its neighbours: 20000 points certify without a dense scan
    def dense(*args, **kwargs):
        raise AssertionError("the blocked kernel ran")

    monkeypatch.setattr(twoptlab.tour, "_scan", dense)
    n = 20000
    angles = np.sort(np.random.default_rng(0).random(n)) * 2.0 * np.pi
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert certify_two_optimality(pts, Tour.from_order(range(n)), "l2") is None


@pytest.mark.parametrize("n", [7, 8, 13, 16])
def test_position_matrix_tracks_the_order(monkeypatch, n):
    # after every applied change the engine's matrix must be the position
    # matrix of the new order, bit for bit, and the added edges must sit where
    # the run's undo guard looks for them; at even n a change can reverse
    # exactly half the tour, the tie between its two sides
    reverse = twoptlab.tour._reverse_segment
    sides = collections.Counter()

    def edge(order, k):
        return frozenset((int(order[k]), int(order[(k + 1) % order.size])))

    def checked(order, i, j, P=None):
        sides[np.sign(2 * (j - i) - order.size)] += 1
        added = {frozenset(e) for e in _make_change(order, i, j, 0.0).added}
        order = reverse(order, i, j, P)
        assert np.array_equal(P, pairwise_distances(pts[np.append(order, order[0])], metric))
        positions = twoptlab.tour._added_positions(order.size, i, j)
        assert {edge(order, k) for k in positions} == added
        return order

    monkeypatch.setattr(twoptlab.tour, "_reverse_segment", checked)
    for metric, pivot, seed in itertools.product(METRICS, PIVOTS, range(8)):
        pts = perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
        run_two_opt(pts, metric, init="random", pivot=pivot, seed=seed)
    assert sides[-1] and sides[1] and (n % 2 or sides[0])


def test_run_holds_one_position_matrix():
    # the run's peak allocation: one (n+1) x (n+1) matrix plus bounded blocks
    n = 600
    pts = make_origins("uniform", n, 2, 0)
    run_two_opt(pts[:20], "l2", init="nn")
    tracemalloc.start()
    try:
        run_two_opt(pts, "l2", init="nn", pivot="first")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (n + 1) ** 2


@pytest.mark.parametrize("metric", METRICS)
def test_adjacent_wrap_pair_is_never_a_candidate(metric):
    # The tour edges 0 and n-1 share vertex order[0]; their "gain" is zero
    # only up to rounding, which at this scale can exceed eps.
    residues = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.random(8)) * 2.0 * np.pi
        pts = 1e6 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        D = pairwise_distances(pts, metric)
        residues += bool(D[0, 1] + D[7, 0] - D[0, 7] - D[1, 0] > 1e-12)
        tour = Tour.from_order(range(8))
        for pivot in PIVOTS:
            hit = scan_oracle.scan(D, tour.order, pivot, 1e-12, np.random.default_rng(seed))
            want = None if hit is None else _make_change(tour.order, *hit)
            assert find_improving(tour, pts, metric, pivot=pivot, seed=seed) == want
        violation = certify_two_optimality(pts, tour, metric)
        want = scan_oracle.certify_scan(pts, tour.order, metric, 1e-12)
        assert want == (None if violation is None else (violation.gain, violation.i, violation.j))
    assert residues > 0


def test_path_two_opt_matches_reference():
    _check_path_two_opt()


def test_path_two_opt_in_tiny_blocks_matches_reference(tiny_blocks):
    _check_path_two_opt()


def _check_path_two_opt():
    # clusters of coincident and nearly coincident points, the padding regime
    for seed in range(6):
        rng = np.random.default_rng(seed)
        centers = rng.random((4, 2))
        pts = centers[rng.integers(4, size=40)] + rng.normal(scale=1e-9, size=(40, 2)) * (seed % 2)
        path = [int(v) for v in rng.permutation(40)]
        assert layered._path_two_opt(pts, path, 1e-15) == scan_oracle._path_two_opt(pts, path, 1e-15)


def _cluster_ids(li):
    """The padding path's left anchor, its cluster (C, then the padding) and right anchor."""
    rows = li.part_rows()
    v3 = rows[("V3", li.params.t)]
    c = v3.size // 2
    cluster = np.concatenate(([v3[c]], rows[("pad", li.params.t)]))
    return int(v3[c - 1]), cluster, int(v3[c + 1])


@pytest.mark.parametrize("sigma, seeds", [(3e-6, range(6)), (0.0, range(1))], ids=["3e-6", "0"])
def test_nn_walk_matches_reference_path(sigma, seeds):
    # at sigma = 0 the padding points coincide with C, so every step is a tie
    li = build_layered(3, sigma)
    left, cluster, right = _cluster_ids(li)
    ids = np.concatenate(([left], cluster))
    for seed in seeds:
        pts = li.perturbed(seed).points
        sub = pts[ids]
        walk = _nn_walk(ids.size, lambda v: vec_dist(sub[v], sub, "l2"))
        assert walk[0] == 0
        assert [int(v) for v in ids[walk[1:]]] == scan_oracle._nn_path(pts, left, cluster, right)


def test_build_long_tour_matches_reference(monkeypatch):
    li = build_layered(3, 3e-6)
    insts = [li.perturbed(seed) for seed in range(4)]
    got = [build_long_tour(li, inst).order for inst in insts]
    # the reference build: the old cluster path (vertex ids mapped to the
    # walk's positions, [left anchor] + cluster) and the old path 2-opt
    left, cluster, right = _cluster_ids(li)
    position = {int(v): k for k, v in enumerate(cluster, start=1)}
    monkeypatch.setattr(layered, "_path_two_opt", scan_oracle._path_two_opt)
    want = []
    for inst in insts:
        path = scan_oracle._nn_path(inst.points, left, cluster, right)
        monkeypatch.setattr(layered, "_nn_walk", lambda n, row: [0] + [position[v] for v in path])
        want.append(build_long_tour(li, inst).order)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("metric", METRICS)
def test_greedy_insertion_matches_reference_loop(metric):
    # grids tie many insertion costs, so the tie rules show
    for n, seed in itertools.product(SIZES + (100, 200), range(2)):
        for pts in (perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points,
                    make_origins("grid", n, 2, seed)):
            want = Tour.from_order(scan_oracle.greedy_insertion(pts, metric)).order
            assert np.array_equal(initial_tour(pts, metric, "greedy").order, want), (n, seed)


def test_greedy_insertion_holds_one_matrix():
    n = 600
    pts = make_origins("uniform", n, 2, 0)
    initial_tour(pts[:20], "l2", "greedy")
    tracemalloc.start()
    try:
        initial_tour(pts, "l2", "greedy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 8 * n**2


@pytest.mark.parametrize("metric", METRICS)
def test_mst_length_matches_dense_prim(metric):
    # grids carry many tied distances, so a change in tie-breaking shows
    for n, seed, pts in _corpus(range(2)):
        assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric), (n, seed)
    pts = build_layered(3, 3e-6).perturbed(0).points
    assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric)
