"""The shared gain kernel against the reference scan loops in scan_oracle.

Every scan in the package -- the engine's three pivot rules, the certifier
and the layered path 2-opt -- runs through one blocked kernel.  These tests
replay a seeded corpus through both and require identical (i, j, gain)
sequences, identical certifier verdicts and identical tours, bit for bit,
at the kernel's block sizes and at tiny ones that split small instances
into many blocks.  A run above one block keeps row summaries across its
steps; after every pick and reverse each known row's summary must be what a
fresh kernel pass over the row gives (the largest gain under best, the
count of improving pairs otherwise).  Its changes must be the reference
loops' at the default block size (n = 260, with ties on a grid) and in tiny
blocks at coordinates so large that the adjacent pairs' rounding residues
exceed eps.  They must also be those of a batch of two, which moves by
gathers and rescans every pair, and the undo guard must fire on that path
too.  The engine's position matrix must follow every applied change
exactly, and a run must hold no more than one such matrix, whatever its
start and pivot.  The coordinate scans evaluate only KD-tree ball
candidates on sparse tours; forced onto that path and onto the blocked
kernel, they must both match the reference loops and each other, random
draws included, and the certifier's gain must be two_change_gain of its
edges; on the blocked kernel they compute one vec_dist block per kernel
block.  The candidates must hold every pair on or
inside a ball whatever the radius classes (radii over many binary
exponents, a radius exactly a power of two, a subnormal tau), and the lb
row's designated tour must certify on its candidates alone.  Coordinates
whose distances overflow are rejected at every entry point.  The layered
padding path, the nearest-neighbour start and the MST share one walk over
the live points' coordinate rows: the path must visit the points the old
path did, in the same order, the start must be the old walk over full
matrix rows, and the MST must weigh exactly what the reference dense Prim
over the full matrix gives, also on a corpus of ties (coincident padding,
lattices, one to three points).  The oracles compute their distances with
their own copy of the reference formula.  Greedy insertion must build the reference
loop's order while holding one distance matrix.  The exact oracles,
held_karp's blocked min-plus passes and min_improvement's per-vertex gain
blocks, must return the reference loops' lengths, tours and smallest gains,
bit for bit, at their block sizes and at tiny ones.  The engine's runner
puts several seeds through one lockstep batch: every record must be
run_two_opt's for its seed, byte for byte, whatever the start rule, pivot
and max_iter, and estimate_two_opt_max must be the old restart loop's, bit
for bit, whatever the batch size and block size, while holding no n x n
distance matrix beside its position matrices.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import scan_oracle
import test_tour_engine
import twoptlab.exact
import twoptlab.tour
from twoptlab import (
    Instance,
    RunRecord,
    Tour,
    brute_force,
    build_layered,
    build_long_tour,
    certify_two_optimality,
    estimate_two_opt_max,
    find_improving,
    held_karp,
    initial_tour,
    make_origins,
    min_improvement,
    mst_length,
    pairwise_distances,
    perturb,
    ratio_experiment,
    run_two_opt,
    tour_length,
    two_change_gain,
    write_csv,
)
from twoptlab import harness, layered
from twoptlab.geometry import Metric, _per_axis, vec_dist
from twoptlab.harness import RATIO_COLUMNS
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


@pytest.mark.parametrize("pivot", PIVOTS)
def test_large_coordinates_in_tiny_blocks_match_reference_scans(tiny_blocks, pivot):
    # at 1e8 and 1e10 the gains of the adjacent pairs, rounding residues, can
    # exceed eps, so a row summary must leave them out as the kernel does; the
    # runs the undo guard stops are left out
    compared = 0
    for scale, metric, seed, n in itertools.product((1e8, 1e10), METRICS, range(6), (12, 30)):
        pts = scale * perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
        try:
            rec = run_two_opt(pts, metric, pivot=pivot, seed=seed, max_iter=3000)
        except ValueError:
            continue
        changes, final_order = scan_oracle.run_two_opt(pts, metric, "random", pivot, 1e-12, seed)
        assert rec.changes == changes, (scale, metric, seed, n)
        assert rec.final_order == [int(v) for v in final_order], (scale, metric, seed, n)
        compared += 1
    assert compared >= 60


def _count_row_summaries(monkeypatch):
    """The list of every _RowSummaries constructed from now on."""
    made = []
    init = twoptlab.tour._RowSummaries.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(twoptlab.tour._RowSummaries, "__init__", counted)
    return made


def test_tiny_blocks_keep_row_summaries_from_n8(tiny_blocks, monkeypatch):
    # a tour whose pairs fit in one 16-gain block is scanned whole at every
    # step; from n = 8 on the corpus runs keep summaries across steps
    made = _count_row_summaries(monkeypatch)
    for n, seed, pts in _corpus(range(1)):
        made.clear()
        run_two_opt(pts, "l2", pivot="first", seed=seed)
        assert len(made) == (n >= 8), n


# the pairs of a tour fit in one default block up to n = 257
BIG = 260
BIG_RUNS = [("l2", init, pivot) for init in ("nn", "random") for pivot in PIVOTS] + [
    (metric, init, "best") for metric in ("l1", "l2sq") for init in ("nn", "random")]


@pytest.mark.parametrize("layout", ["uniform", "grid"])
@pytest.mark.parametrize("metric,init,pivot", BIG_RUNS)
def test_runs_above_one_block_match_reference_scans(layout, metric, init, pivot):
    # at the default block size the runs keep row summaries across steps; on
    # the grid many gains tie, so the earliest pair among equal gains counts
    assert BIG * (BIG - 3) // 2 > twoptlab.tour._SCAN_BLOCK
    if layout == "grid":
        pts = make_origins("grid", BIG, 2, 3)
    else:
        pts = perturb(make_origins("uniform", BIG, 2, 3), 0.3, 3).points
    rec = run_two_opt(pts, metric, init=init, pivot=pivot, seed=3)
    changes, final_order = scan_oracle.run_two_opt(pts, metric, init, pivot, 1e-12, 3)
    assert rec.changes == changes
    assert rec.final_order == [int(v) for v in final_order]


def _check_row_summaries(monkeypatch):
    """After every pick and reverse, each known row's summary must be the
    one a fresh kernel pass over the row gives: under best the row's largest
    gain while that is > eps (and <= eps otherwise), under first and random
    its count of gains > eps.  Returns the number of rows checked per pivot."""
    checked = collections.Counter()
    summaries = twoptlab.tour._RowSummaries

    def check(self):
        for i in np.flatnonzero(self.valid):
            g = twoptlab.tour._gains(self.el, self.dists, i, i + 1, slice(None))[0, 0]
            got, top = self.summary[i], g.max()
            if self.pivot != "best":
                assert got == np.count_nonzero(g > self.eps), i
            elif top > self.eps:
                assert got == top, i
            else:
                assert got <= self.eps, i
        checked[self.pivot] += int(self.valid.sum())

    def hook(name):
        method = getattr(summaries, name)

        def hooked(self, *args):
            out = method(self, *args)
            check(self)
            return out
        monkeypatch.setattr(summaries, name, hooked)

    hook("pick")
    hook("reverse")
    return checked


@pytest.mark.parametrize("layout", ["uniform", "grid"])
@pytest.mark.parametrize("init", ["nn", "random"])
def test_row_summaries_match_fresh_kernel_rows(monkeypatch, layout, init):
    # the first steps of each run: from a random start most reversals are
    # inner ones that trade columns, and under best some invalidate a row
    checked = _check_row_summaries(monkeypatch)
    if layout == "grid":
        pts = make_origins("grid", BIG, 2, 3)
    else:
        pts = perturb(make_origins("uniform", BIG, 2, 3), 0.3, 3).points
    for pivot in PIVOTS:
        run_two_opt(pts, "l2", init=init, pivot=pivot, seed=3, max_iter=40)
    assert min(checked[pivot] for pivot in PIVOTS) > 0, checked


def test_row_summaries_in_tiny_blocks_match_fresh_kernel_rows(tiny_blocks, monkeypatch):
    checked = _check_row_summaries(monkeypatch)
    for n, seed, pts in _corpus(range(1)):
        for pivot, init in itertools.product(PIVOTS, ("nn", "random")):
            run_two_opt(pts, "l2", init=init, pivot=pivot, seed=seed)
    assert min(checked[pivot] for pivot in PIVOTS) > 0, checked


def _check_find_improving(metric):
    for n, seed, pts in _corpus(range(4)):
        D = scan_oracle.pairwise_distances(pts, metric)
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
    # a random tour, also at 1e6 where rounding reaches the gains' last bits,
    # and a 2-opt local optimum; the reported gain must be two_change_gain
    # of the reported edges, bit for bit
    for n, seed, pts in _corpus(range(4)):
        random_tour = Tour.from_order(np.random.default_rng(seed).permutation(n))
        cases = [
            (pts, random_tour),
            (1e6 * pts, random_tour),
            (pts, Tour.from_order(run_two_opt(pts, metric, seed=seed).final_order)),
        ]
        for x, tour in cases:
            got = certify_two_optimality(x, tour, metric)
            want = scan_oracle.certify_scan(x, tour.order, metric, 1e-12)
            if want is None:
                assert got is None
                continue
            assert (got.gain, got.i, got.j) == want
            (x1, x2), (x3, x4) = got.removed
            assert got.gain == two_change_gain(x[x1], x[x2], x[x3], x[x4], metric), (n, seed)


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
    if name == "x1e6":
        return 1e6 * perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
    if name == "coincident":  # every point has a twin, and grid gains tie
        return make_origins("grid", n, 2, seed)[np.arange(n) // 2]
    dim = {"d1": 1, "d3": 3}[name]
    return perturb(make_origins("uniform", n, dim, seed), 0.3, seed).points


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("layout", ["x1e6", "coincident", "d1", "d3"])
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
def test_overflowing_coordinates_are_rejected(metric):
    # at 1e200 every l2 and l2sq distance overflows and every gain is NaN, so
    # a scan used to find nothing: runs "converged" at length inf, certify
    # and min_improvement found no improving pair, and held_karp looped
    pts = 1e200 * perturb(make_origins("uniform", 12, 2, 0), 0.3, 0).points
    tour = Tour.from_order(range(12))
    calls = [
        *(lambda init=init: run_two_opt(pts, metric, init=init) for init in INITS),
        lambda: certify_two_optimality(pts, tour, metric),
        *(lambda pivot=pivot: find_improving(tour, pts, metric, pivot=pivot, seed=0)
          for pivot in PIVOTS),
        lambda: min_improvement(pts, metric),
        lambda: brute_force(pts[:9], metric),
        lambda: held_karp(pts, metric),
        lambda: Instance(dim=2, sigma=0.0, seed=0, origins=pts, points=pts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="2 n d"):
            call()
    # the bound is 2 n d (max - min)^2: a spread inside it passes, and the
    # tour length stays finite
    edge = math.sqrt(np.finfo(float).max / (2 * 12 * 2)) / 2
    assert np.isfinite(tour_length(tour, edge * make_origins("uniform", 12, 2, 0), metric))


def _ball_radii(p, metric):
    """The ball radius of each edge of the closed tour through p, as _ball_keys takes it."""
    el = vec_dist(p, np.roll(p, -1, axis=0), metric)
    r = (el + np.spacing(2 * el.max())) * (1 + 2.0**-40)
    return np.sqrt(r) if metric == "l2sq" else r


def _ball_layouts(metric):
    """Point sets whose ball candidates are checked: (name, points, orders)."""
    # grids at inexact scales put many pairs exactly on a ball's boundary,
    # d13 == el_i as vec_dist computes them, where the tree's own rounding
    # can differ: the radius margins must keep every such pair
    for (n, dim, seed), scale in itertools.product(((60, 2, 0), (64, 3, 1), (50, 1, 2)),
                                                   (1 / 3, 1e6 / 3)):
        pts = scale * make_origins("grid", n, dim, seed)
        yield f"grid {n} {dim} {scale}", pts, (np.arange(n), np.random.default_rng(seed).permutation(n))
    # nested grids 2^-3 apart in scale: the radii fall into many classes
    nested = np.concatenate([2.0 ** (-3 * k) * (make_origins("grid", 16, 2, 0) + 2 * k)
                             for k in range(5)])
    el = vec_dist(nested, np.roll(nested, -1, axis=0), metric)
    exps = np.frexp(el[el > 0])[1]
    assert exps.max() - exps.min() >= 10
    yield "nested", nested, (np.arange(80), np.random.default_rng(0).permutation(80))
    # an integer lattice scaled an ulp at a time until some radii are exactly
    # a power of two, the lower edge of their class
    lattice = np.array([(x, y) for x in range(6) for y in range(6)], dtype=float)
    order = np.random.default_rng(1).permutation(36)
    scale = (1 + 2.0**-46) / _ball_radii(lattice[order], metric).min()
    for _ in range(1000):
        if (np.frexp(_ball_radii(scale * lattice[order], metric))[0] == 0.5).any():
            break
        scale = np.nextafter(scale, 0.0)
    else:
        raise AssertionError("no scale gives a power-of-two radius")
    yield "power of two", scale * lattice, (order,)
    # every point coincident: el.max() == 0, so tau is subnormal
    yield "coincident", np.full((12, 2), 0.3), (np.arange(12),)


@pytest.mark.parametrize("metric", METRICS)
def test_ball_candidates_hold_every_pair_on_or_inside_a_ball(pruned_scans, metric):
    for name, pts, orders in _ball_layouts(metric):
        n = pts.shape[0]
        for order in orders:
            p = pts[order]
            pn = np.roll(p, -1, axis=0)
            el = vec_dist(p, pn, metric)
            i, j = np.triu_indices(n, 2)
            pairs = (i != 0) | (j != n - 1)  # (0, n-1) is adjacent on the closed tour
            i, j = i[pairs], j[pairs]
            inside = (vec_dist(p[i], p[j], metric) <= el[i]) | (vec_dist(pn[i], pn[j], metric) <= el[j])
            keys = twoptlab.tour._ball_keys(p, pn, el, metric)
            assert np.isin((i * n + j)[inside], keys).all(), name


@pytest.mark.parametrize("d", [2, 3])
def test_dense_certify_computes_one_distance_block_per_kernel_block(monkeypatch, d):
    # a random tour's long edges make the ball filter decline it; the
    # kernel then reads d13 and d24 of each block from one vec_dist block
    calls = []

    def counted(a, b, metric):
        calls.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        return vec_dist(a, b, metric)

    monkeypatch.setattr(twoptlab.tour, "vec_dist", counted)
    n = 600
    pts = make_origins("uniform", n, d, 1)
    order = np.random.default_rng(1).permutation(n)
    assert certify_two_optimality(pts, order, "l2") is not None
    blocks = list(twoptlab.tour._blocks(n, twoptlab.tour._SCAN_BLOCK))
    assert len(blocks) > 1
    assert calls == [(n, d)] + [(i1 - i0 + 1, n - i0 - 1, d) for i0, i1 in blocks]


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


def test_lb_rows_certify_on_ball_candidates(monkeypatch):
    # the lb row's designated p = 3 tour (n = 3106) certifies on its ball
    # candidates: the radius classes' overcount must not send it to the
    # blocked kernel.  A few random 2-changes then make violations, which
    # the candidates and the blocked kernel must pick alike, random draws
    # included
    li = build_layered(3, 3e-6)
    perts = [li.perturbed(s) for s in range(3)]
    tours = [build_long_tour(li, pert) for pert in perts]

    def dense(*args, **kwargs):
        raise AssertionError("the blocked kernel ran")

    with monkeypatch.context() as patch:
        patch.setattr(twoptlab.tour, "_scan", dense)
        for s, (pert, tour) in enumerate(zip(perts, tours)):
            assert certify_two_optimality(pert.points, tour, "l2") is None, s
    for s, (pert, tour) in enumerate(zip(perts, tours)):
        order = np.array(tour.order)
        rng = np.random.default_rng(s)
        for _ in range(4):
            i, j = sorted(rng.choice(order.size, 2, replace=False))
            order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
        for pivot in PIVOTS:
            picks = []
            for share in (math.inf, -1.0):
                monkeypatch.setattr(twoptlab.tour, "_PRUNE_SHARE", share)
                rng = np.random.default_rng(s)
                picks.append((_scan_points(pert.points[order], "l2", pivot, 1e-12, rng),
                              rng.bit_generator.state))
            assert picks[0][0] is not None and picks[0] == picks[1], (s, pivot)


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
        positions = reverse(order, i, j, P)
        assert np.array_equal(P, pairwise_distances(pts[np.append(order, order[0])], metric))
        assert {edge(order, k) for k in positions} == added
        return positions

    monkeypatch.setattr(twoptlab.tour, "_reverse_segment", checked)
    for metric, pivot, seed in itertools.product(METRICS, PIVOTS, range(8)):
        pts = perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
        run_two_opt(pts, metric, init="random", pivot=pivot, seed=seed)
    assert sides[-1] and sides[1] and (n % 2 or sides[0])


@pytest.mark.parametrize("n", [4, 7, 8, 13])
def test_batch_reversals_match_the_in_place_reversal(n):
    # every pair (i, j) a scan can pick, inner side, outer side and, at even
    # n, the tie: the gather gives the order and the added-edge positions
    # that _reverse_segment gives in place
    i, j = (np.array(v) for v in zip(*((i, j) for i in range(n) for j in range(i + 2, n)
                                        if (i, j) != (0, n - 1))))
    perm, added = twoptlab.tour._reversals(n, i, j)
    for row in range(i.size):
        order = np.arange(n)
        assert tuple(added[row]) == twoptlab.tour._reverse_segment(order, int(i[row]), int(j[row]))
        assert np.array_equal(perm[row], order), (i[row], j[row])


def test_run_holds_one_position_matrix():
    # the run's peak allocation: one (n+1) x (n+1) matrix plus bounded blocks,
    # O(n) row summaries and the record's changes, whatever the pivot; the
    # thousands of changes of a random start are record payload, not kept here
    n = 600
    pts = make_origins("uniform", n, 2, 0)
    run_two_opt(pts[:20], "l2", init="nn")
    for init, pivot in itertools.product(("nn", "random"), PIVOTS):
        tracemalloc.start()
        try:
            run_two_opt(pts, "l2", init=init, pivot=pivot, keep_changes=init == "nn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (n + 1) ** 2, (init, pivot)


@pytest.mark.parametrize("metric", METRICS)
def test_adjacent_wrap_pair_is_never_a_candidate(metric):
    # The tour edges 0 and n-1 share vertex order[0]; their "gain" is zero
    # only up to rounding, which at this scale can exceed eps.
    residues = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.random(8)) * 2.0 * np.pi
        pts = 1e6 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        D = scan_oracle.pairwise_distances(pts, metric)
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
    # a 200-point prefix of the real padding path, whose blocks are gathered
    # from one matrix across many reversals; at sigma = 0 every gain ties
    for sigma in (3e-6, 0.0):
        li = build_layered(3, sigma)
        left, cluster, _ = _cluster_ids(li)
        ids = np.concatenate(([left], cluster))
        pts = li.perturbed(0).points
        path = [int(v) for v in ids[_nn_walk(pts[ids], "l2")[0][:200]]]
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
    for t in (None,) if sigma else (1, 3):
        li = build_layered(3, sigma, t)
        left, cluster, right = _cluster_ids(li)
        ids = np.concatenate(([left], cluster))
        for seed in seeds:
            pts = li.perturbed(seed).points
            walk = np.array(_nn_walk(pts[ids], "l2")[0])
            assert walk[0] == 0
            assert [int(v) for v in ids[walk[1:]]] == scan_oracle._nn_path(pts, left, cluster, right)


def test_build_long_tour_matches_reference(monkeypatch):
    # sigma = 0 builds on coincident padding and a tied lattice
    cases = [(build_layered(3, 3e-6), range(4))]
    cases += [(build_layered(3, 0.0, t), [None]) for t in (1, 3)]
    for li, seeds in cases:
        insts = [li.unperturbed() if seed is None else li.perturbed(seed) for seed in seeds]
        got = [build_long_tour(li, inst).order for inst in insts]
        # the reference build: the old cluster path (vertex ids mapped to the
        # walk's positions, [left anchor] + cluster) and the old path 2-opt
        left, cluster, right = _cluster_ids(li)
        position = {int(v): k for k, v in enumerate(cluster, start=1)}
        with monkeypatch.context() as patch:
            patch.setattr(layered, "_path_two_opt", scan_oracle._path_two_opt)
            want = []
            for inst in insts:
                path = scan_oracle._nn_path(inst.points, left, cluster, right)
                patch.setattr(layered, "_nn_walk",
                              lambda pts, metric: ([0] + [position[v] for v in path], None))
                want.append(build_long_tour(li, inst).order)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), li.params


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


def _tie_corpus():
    """(name, points) where the live-set walks meet ties: the layered
    construction at sigma = 0 (coincident padding, lattice distances), one
    to three points, a set of coincident points, and 1-d and 3-d grids."""
    for t in (1, 3):
        yield f"layered t={t}", build_layered(3, 0.0, t).unperturbed().points
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        yield f"n={n}", rng.random((n, 2))
    yield "coincident", np.full((9, 2), 0.375)
    for dim in (1, 3):
        yield f"grid {dim}-d", make_origins("grid", 27, dim, 0)


@pytest.mark.parametrize("metric", METRICS)
def test_mst_length_matches_dense_prim(metric):
    # grids carry many tied distances, so a change in tie-breaking shows
    for n, seed, pts in _corpus(range(2)):
        assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric), (n, seed)
    pts = build_layered(3, 3e-6).perturbed(0).points
    assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric)
    for name, pts in _tie_corpus():
        assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric), name


@pytest.fixture
def candidate_mst(monkeypatch):
    """Logs the sizes dense Prim runs on and the trees that are replayed."""
    exact = twoptlab.exact
    log = {"dense": [], "replayed": []}

    def walk(pts, metric, tree=False):
        log["dense"].append(len(pts))
        return _nn_walk(pts, metric, tree)

    def replay(n, a, b, w):
        log["replayed"].append(n)
        return real_replay(n, a, b, w)

    real_replay = exact._prim_replay
    monkeypatch.setattr(exact, "_nn_walk", walk)
    monkeypatch.setattr(exact, "_prim_replay", replay)
    return log


@pytest.mark.parametrize("metric", METRICS)
def test_candidate_mst_keys_are_dense_prims(candidate_mst, metric):
    # where the candidates certify, their keys are dense Prim's, in join
    # order and bit for bit, and mst_length runs no dense Prim; every 2-d
    # input here certifies, while a 1-d one may fall back
    for dim, layout, n, seed in itertools.product((1, 2), ("uniform", "grid"), (17, 40, 129, 700), range(2)):
        if dim == 1 and layout == "grid":
            continue
        name = f"{dim}-d {layout} n={n} seed={seed}"
        pts = make_origins(layout, n, dim, seed)
        if layout == "grid":
            pts = perturb(pts, 1e-3, seed).points
        keys = twoptlab.exact._candidate_keys(pts, Metric.parse(metric))
        assert keys is not None or dim == 1, name
        candidate_mst["dense"].clear()
        assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric), name
        if keys is not None:
            assert candidate_mst["dense"] == [], name
            assert keys == _nn_walk(pts, metric, tree=True)[1], name
        else:
            assert candidate_mst["dense"] == [n], name


def _fallback_corpus(metric):
    """(name, points, replayed): inputs the candidates cannot certify under
    the metric, and whether their spanning tree is replayed before the
    certificate fails."""
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    pts[150] = pts[20]
    yield "coincident points", pts, False
    yield "lattice, sigma = 0", make_origins("grid", 400, 2, 0), False
    yield "d = 3", rng.random((200, 3)), False
    yield "n = 16", rng.random((16, 2)), False
    # 20 points each, so no candidate crosses between the clusters
    cluster = 1e-2 * rng.random((20, 2))
    yield "two far clusters", np.vstack((cluster, cluster + 10.0)), False
    # a point halfway between them has candidates in both, so the tree
    # spans, but its joins outweigh every point's last candidate distance
    facing = [10.0005, 0.005] - 1e-2 * rng.random((20, 2))
    yield "two far clusters and a bridge", np.vstack((cluster, [[5.0, 0.005]], facing)), True
    if metric == "l1":
        return
    # two rings of 17 points whose nearest pair, 1.0 apart, lies outside
    # the candidates: on a ring every other point is nearer than 0.98 (in
    # l2, not in l1).  The candidates cross only through a point 1.2 from
    # both, so their tree is not the MST, and the certificate must see it.
    # Scaled by 1/4, every distance is below 1 and larger than its square.
    turns = 2 * np.pi * (np.arange(17) + 0.2 * rng.random((2, 17))) / 17
    rings = [centre + 0.49 * np.column_stack((np.cos(t), np.sin(t)))
             for centre, t in (([0.0, 0.0], turns[0]), ([1.98, 0.0], np.pi + turns[1]))]
    yield "two rings and a bridge", 0.25 * np.vstack(rings + [[[0.99, 1.091]]]), True


@pytest.mark.parametrize("metric", METRICS)
def test_candidate_mst_falls_back_to_dense_prim(candidate_mst, metric):
    for name, pts, replayed in _fallback_corpus(metric):
        candidate_mst["dense"].clear()
        candidate_mst["replayed"].clear()
        assert twoptlab.exact._candidate_keys(pts, Metric.parse(metric)) is None, name
        assert candidate_mst["replayed"] == ([len(pts)] if replayed else []), name
        assert mst_length(pts, metric) == scan_oracle.mst_length(pts, metric), name
        assert candidate_mst["dense"] == [len(pts)], name


@pytest.mark.parametrize("metric", METRICS)
def test_lb_instances_take_the_candidate_path(monkeypatch, metric):
    # the lb rows' MST (n = 3106) comes from the candidates alone, with
    # dense Prim's bits: the walk raises if mst_length falls back to it
    li = build_layered(3, 3e-6)
    instances = [li.perturbed(s).points for s in range(3)]
    want = [scan_oracle.mst_length(pts, metric) for pts in instances]

    def walk(*args, **kwargs):
        raise AssertionError("mst_length fell back to dense Prim")

    monkeypatch.setattr(twoptlab.exact, "_nn_walk", walk)
    assert [mst_length(pts, metric) for pts in instances] == want


@pytest.mark.parametrize("metric", METRICS)
def test_nearest_neighbor_start_matches_dense_walk(metric):
    # the walk over live coordinate rows against the old walk over full matrix rows
    corpus = ((f"n={n} seed={seed}", pts) for n, seed, pts in _corpus(range(2)))
    for name, pts in itertools.chain(_tie_corpus(), corpus):
        want = scan_oracle.nn_walk(pts, metric)
        assert _nn_walk(pts, metric)[0] == want, name
        if len(pts) >= 3:
            got = initial_tour(pts, metric, "nearest_neighbor").order
            assert np.array_equal(got, Tour.from_order(want).order), name


def test_live_set_compacts_without_changing_the_walk(monkeypatch):
    # a walk computes each row against its live points only and compacts
    # them once more than an eighth are dead, so row k holds the 63 - k live
    # points and at most a seventh as many dead ones (a half rule would let
    # row 31 hold 64 entries for its 32 live points)
    lengths = []

    def row(metric, x, y=None):
        lengths.append(len(x))
        return _per_axis(metric, x, y)

    monkeypatch.setattr(twoptlab.tour, "_per_axis", row)
    pts = make_origins("grid", 64, 2, 0)
    for tree in (False, True):
        lengths.clear()
        order, keys = _nn_walk(pts, "l2", tree)
        assert len(lengths) == len(keys) == 63
        assert all(63 - k <= size and 7 * size <= 8 * (63 - k) for k, size in enumerate(lengths))
        assert sorted(order) == list(range(64))
    monkeypatch.undo()
    assert _nn_walk(pts, "l2")[0] == scan_oracle.nn_walk(pts, "l2")
    assert mst_length(pts, "l2") == scan_oracle.mst_length(pts, "l2")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_walks_leave_the_callers_points_unchanged(d):
    # a walk writes inf over its dead points: into its own copy, never the
    # caller's array (at d = 1 a column of it is a view of the array)
    pts = make_origins("uniform", 40, d, 0)
    want = pts.copy()
    for tree in (False, True):
        _nn_walk(pts, "l2", tree)
    mst_length(pts, "l2")
    initial_tour(pts, "l2", "nn")
    assert pts.tobytes() == want.tobytes()


def _oracle_corpus():
    """(n, seed, points) for the exact oracles: uniform points, small integer
    points (tied distances and coincident points), 3-D points at scale 1e3
    and a slightly perturbed grid."""
    for n, seed in itertools.product((3, 4, 5, 8, 12, 16), range(2)):
        rng = np.random.default_rng([n, seed])
        yield n, seed, make_origins("uniform", n, 2, seed)
        yield n, seed, rng.integers(0, 4, size=(n, 2)).astype(float)
        yield n, seed, 1e3 * rng.random((n, 3))
        yield n, seed, perturb(make_origins("grid", n, 2, seed), 1e-3, seed).points


def _check_exact_oracles(metric):
    for n, seed, pts in _oracle_corpus():
        got = held_karp(pts, metric)
        length, order = scan_oracle.held_karp(pts, metric)
        assert got.length.hex() == length.hex(), (n, seed)
        assert got.tour.order.tolist() == order, (n, seed)
        if n >= 4:
            got = min_improvement(pts, metric)
            want = scan_oracle.min_improvement(pts, metric, 1e-12)
            assert (got is None) == (want is None), (n, seed)
            assert got is None or got.hex() == want.hex(), (n, seed)


@pytest.mark.parametrize("metric", METRICS)
def test_exact_oracles_match_reference_loops(metric):
    # n = 16 splits the middle popcount layers into several mask blocks
    _check_exact_oracles(metric)


def test_exact_oracles_in_tiny_blocks_match_reference_loops(monkeypatch, tiny_blocks):
    # blocks of a few masks and of one b value per call
    monkeypatch.setattr(twoptlab.exact, "_SCAN_BLOCK", 64)
    _check_exact_oracles("l1")


def test_held_karp_at_n18_matches_reference_loop():
    pts = perturb(make_origins("uniform", 18, 2, 7), 0.1, 7).points
    got = held_karp(pts, "l1")
    length, order = scan_oracle.held_karp(pts, "l1")
    assert got.length.hex() == length.hex()
    assert got.tour.order.tolist() == order


def _restart_corpus():
    """(n, points) for the restart tests: uniform points, a perturbed grid, and
    small integer points, whose distances tie and whose points coincide."""
    for n in (3, 4, 5, 8, 12, 20, 40):
        yield n, make_origins("uniform", n, 2, n)
        yield n, perturb(make_origins("grid", n, 2, n), 1e-3, n).points
        yield n, np.random.default_rng([n, 7]).integers(0, 4, size=(n, 2)).astype(float)


RESTARTS = 7


def _restart_seeds(seed):
    """The run seeds estimate_two_opt_max(..., restarts=RESTARTS, seed=seed) gives its restarts."""
    return [int(child.generate_state(1, np.uint64)[0])
            for child in np.random.SeedSequence(seed).spawn(RESTARTS)]


def _ends(runs):
    return [(run.final_length, run.iterations, run.final_order) for run in runs]


@pytest.mark.parametrize("metric,pivot", itertools.product(METRICS, PIVOTS))
def test_restarts_match_one_run_per_seed(monkeypatch, metric, pivot):
    # all restarts in one batch, then batches of 1, 2, 3 and 7 tours; the
    # first pivot's blocks start at 4 gains, so tours of one batch find their
    # pairs in different blocks.  A final length sums the edges from vertex 0
    # on, as tour_length does.
    for n, pts in _restart_corpus():
        seeds = _restart_seeds(n)
        want = _ends(run_two_opt(pts, metric, pivot=pivot, seed=s, keep_changes=False)
                     for s in seeds)
        assert all(length == tour_length(order, pts, metric) for length, _, order in want), n
        oracle = scan_oracle.estimate_two_opt_max(pts, metric, RESTARTS, pivot, 1e-12, n)
        for size in (None, 1, 2, 3, 7):
            if size is not None:
                monkeypatch.setattr(twoptlab.tour, "_SCAN_BLOCK", size * (n + 1) ** 2)
                monkeypatch.setattr(twoptlab.tour, "_SCAN_FIRST", 4)
            runs = twoptlab.tour._runs(pts, metric, "random", pivot, 1e-12, seeds)
            assert _ends(runs) == want, (n, size)
            got = estimate_two_opt_max(pts, metric, RESTARTS, pivot, seed=n)
            assert got.hex() == oracle.hex(), (n, size)
        monkeypatch.undo()


@pytest.mark.parametrize("metric,pivot", itertools.product(METRICS, PIVOTS))
def test_batches_in_tiny_blocks_match_one_run_per_seed(tiny_blocks, metric, pivot):
    # one batch over blocks of 16 gains, changes kept: every pivot reduces
    # several blocks per tour, and its tours pick in different blocks
    for n, pts in _restart_corpus():
        seeds = _restart_seeds(n)
        want = [run_two_opt(pts, metric, pivot=pivot, seed=s) for s in seeds]
        rngs = [np.random.default_rng(s) for s in seeds]
        orders = np.array([initial_tour(pts, metric, "random", rng).order for rng in rngs])
        runs = twoptlab.tour._descend(pts, metric, orders, pivot, 1e-12, rngs, keep_changes=True)
        assert runs == [{k: getattr(rec, k) for k in run} for run, rec in zip(runs, want)], n


@pytest.mark.parametrize("init,pivot", itertools.product(INITS, PIVOTS))
def test_runner_batch_matches_one_run_per_seed(init, pivot):
    # seven seeds in one batch, stopped after three changes: tours of a batch
    # retire at max_iter, and non-random starts share the lockstep batch
    for n, pts in _restart_corpus():
        seeds = _restart_seeds(n)
        assert twoptlab.tour._SCAN_BLOCK // (n + 1) ** 2 >= len(seeds)
        for metric in METRICS:
            runs = twoptlab.tour._runs(pts, metric, init, pivot, 1e-12, seeds, 3, True)
            want = [run_two_opt(pts, metric, init, pivot, seed=s, max_iter=3) for s in seeds]
            assert ([run.to_json(include_changes=True) for run in runs]
                    == [rec.to_json(include_changes=True) for rec in want]), (n, metric)


@pytest.mark.parametrize("init,pivot", itertools.product(INITS, PIVOTS))
def test_in_place_runs_match_the_gather_path(monkeypatch, init, pivot):
    # a batch of two moves its matrices by gathers and scans every pair at
    # every step; one tour alone keeps row summaries across its in-place
    # steps.  The records must agree byte for byte, and the hook sees both
    # ways a step refreshes every row although all were known: an outer
    # reversal, and an inner one touching more than half the pairs
    reverse = twoptlab.tour._RowSummaries.reverse
    refreshed = collections.Counter()

    def hooked(self, order, i, j):
        known = self.valid.all()
        added = reverse(self, order, i, j)
        if known and not self.valid.any():
            refreshed["outer" if 2 * (j - i) > order.size else "inner"] += 1
        return added

    monkeypatch.setattr(twoptlab.tour._RowSummaries, "reverse", hooked)
    pts = perturb(make_origins("uniform", BIG, 2, 4), 0.3, 4).points
    seeds = [4, 5]
    for max_iter in (None, 5):
        # each seed's generator draws its start, then its random-pivot picks
        rngs = [np.random.default_rng(s) for s in seeds]
        orders = np.array([initial_tour(pts, "l2", init, rng).order for rng in rngs])
        runs = twoptlab.tour._descend(pts, "l2", orders, pivot, 1e-12, rngs, max_iter,
                                      keep_changes=True)
        for seed, run in zip(seeds, runs):
            rec = run_two_opt(pts, "l2", init, pivot, seed=seed, max_iter=max_iter)
            got = RunRecord(seed=seed, metric="l2", pivot=pivot, init=rec.init, n=BIG,
                            eps=1e-12, **run)
            same = got.to_json(include_changes=True) == rec.to_json(include_changes=True)
            assert same, (seed, max_iter)
    if init == "random" and pivot != "first":
        assert refreshed["outer"] and refreshed["inner"], refreshed


def test_estimate_holds_one_position_matrix():
    # one restart at n = 300: its (n+1) x (n+1) matrix plus bounded blocks,
    # and no n x n distance matrix beside it
    n = 300
    pts = make_origins("uniform", n, 2, 0)
    estimate_two_opt_max(pts[:20], "l2", 1)
    tracemalloc.start()
    try:
        estimate_two_opt_max(pts, "l2", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (n + 1) ** 2


def test_undo_guard_raises_inside_a_batch():
    # restart 1 of seed 1 flips between two tours at this scale (see
    # test_run_that_would_undo_its_last_change_raises); all 20 restarts
    # share one batch
    pts = 1e6 * perturb(make_origins("uniform", 12, 2, 0), 0.3, 0).points
    assert twoptlab.tour._SCAN_BLOCK // 13**2 >= 20
    for estimate in (estimate_two_opt_max, scan_oracle.estimate_two_opt_max):
        with pytest.raises(ValueError, match="undoes the previous change"):
            estimate(pts, "l1", 20, "first", 1e-12, 1)


@pytest.mark.parametrize("n,seed,pivot", [(12, 2, "first"), (30, 4, "best")])
def test_undo_guard_raises_on_a_single_tour(tiny_blocks, monkeypatch, n, seed, pivot):
    # at 1e8 the l1 gains of a 2-change and of its inverse are both rounding
    # residues above eps; in 16-gain blocks the run keeps row summaries
    made = _count_row_summaries(monkeypatch)
    pts = 1e8 * perturb(make_origins("uniform", n, 2, seed), 0.3, seed).points
    with pytest.raises(ValueError, match="undoes the previous change"):
        run_two_opt(pts, "l1", pivot=pivot, seed=seed, max_iter=3000)
    assert len(made) == 1


def test_ratio_csv_matches_the_reference_estimate(monkeypatch, tmp_path):
    config = dict(n=12, sigma_grid=(0.01, 0.3), restarts=6, seeds=3, base_seed=5, pivot="best")
    write_csv(ratio_experiment(**config), str(tmp_path / "batched.csv"), RATIO_COLUMNS)
    monkeypatch.setattr(harness, "estimate_two_opt_max", scan_oracle.estimate_two_opt_max)
    write_csv(ratio_experiment(**config), str(tmp_path / "oracle.csv"), RATIO_COLUMNS)
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
