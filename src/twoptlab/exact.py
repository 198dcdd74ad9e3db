"""Exact baselines: optimal tours, spanning trees and tour diagnostics.

Two independent exact TSP solvers are kept side by side on purpose --
``brute_force`` (permutation enumeration, n <= 11) and ``held_karp``
(bitmask dynamic program, n <= 20) -- so each can vouch for the other in
tests.  ``mst_length`` is the sum of Prim's join keys from vertex 0, in
join order.  For d = 2 and n > 16 it takes them from each point's 16
nearest neighbours (one ``cKDTree`` query, ``scipy.spatial`` being imported
on first use; the candidates of Bentley's fixed-radius near neighbours,
ORSA J. Comput. 4(4), 1992): their tree by Borůvka, Prim's join order
replayed on it with a heap, and a certificate that no edge outside the
candidates is as light as any join.  Where that fails (ties, coincident
points, candidates that do not span) or is not tried (d != 2,
n <= 16) it runs dense Prim over the live vertices, the
nearest-neighbour start's walk ``tour._nn_walk``: each join computes one
coordinate row against the vertices not yet in the tree, ties to the
smallest index, in O(n) memory and no n x n matrix.  Both give the same
keys, so the weight keeps its bits whichever runs.  Under the triangle
inequality (l1 and l2, not l2sq) MST <= TSP <= 2 MST bounds the optimum of
instances too large to solve; only ``_upper_bound`` and ``_ratio`` apply
it, never against a zero optimum.

``estimate_two_opt_max`` approximates the *worst* 2-optimal tour length by
restarting the engine from many random tours and keeping the maximum; its
seeds are spawned from one SeedSequence, so the estimate is monotone
non-decreasing in the number of restarts.  The restarts go through the
engine's runner, the one behind run_two_opt, as lockstep batches of about
_SCAN_BLOCK // (n+1)^2 tours (one kernel pass per step for the whole
batch), so their position matrices take O(_SCAN_BLOCK) memory, or one
(n+1) x (n+1) matrix from n = 128 on; each restart's record is
run_two_opt's for its seed.

``edge_length_histogram`` buckets tour edges into the dyadic scale
[OPT/2^i, OPT/2^(i-1)); the identity sum_i L(T_i) = L(T) makes it the
bookkeeping tool behind descent-counting arguments.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time

import numpy as np

from .geometry import Metric, _pairwise, _per_axis, vec_dist
from .tour import _EPS, _SCAN_BLOCK, Tour, _coords, _nn_walk, _runs, _tour_order

__all__ = [
    "ExactResult",
    "brute_force",
    "held_karp",
    "mst_length",
    "estimate_two_opt_max",
    "edge_length_histogram",
    "OVERFLOW_BIN",
]

BRUTE_FORCE_MAX_N = 11
HELD_KARP_MAX_N = 20

# Edges of length exactly zero fall outside every dyadic bucket; they are
# collected under this index so the buckets always partition the tour.
OVERFLOW_BIN = 1100

# mst_length's candidates: each point's nearest neighbours.  On the p = 3
# layered instance (n = 3106) they took 14 ms of thread time on a 2-vCPU VM
# against dense Prim's 35 ms.
_MST_NEIGHBOURS = 16


@dataclasses.dataclass(frozen=True)
class ExactResult:
    """An optimal tour with its length and provenance."""

    length: float
    tour: Tour
    algorithm: str
    elapsed: float


def brute_force(inst_or_points, metric: Metric | str = Metric.EUCLIDEAN) -> ExactResult:
    """Exact optimum by enumerating permutations (3 <= n <= 11).

    Fixes vertex 0 first and keeps only one direction of each cycle
    (first visited < last visited), evaluating all candidates in one
    vectorized pass.
    """
    t0 = time.perf_counter()
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    if not 3 <= n <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute_force handles 3 <= n <= {BRUTE_FORCE_MAX_N}, got n={n}")
    D = _pairwise(pts, metric)
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.int8)
    perms = perms[perms[:, 0] < perms[:, -1]]
    lengths = D[0, perms[:, 0]] + D[perms[:, -1], 0]
    for k in range(n - 2):
        lengths += D[perms[:, k], perms[:, k + 1]]
    best = int(np.argmin(lengths))
    order = [0] + [int(v) for v in perms[best]]
    return ExactResult(
        length=float(lengths[best]),
        tour=Tour.from_order(order, cached_length=float(lengths[best]),
                             metric=Metric.parse(metric)),
        algorithm="brute",
        elapsed=time.perf_counter() - t0,
    )


def held_karp(inst_or_points, metric: Metric | str = Metric.EUCLIDEAN) -> ExactResult:
    """Exact optimum by the Held-Karp dynamic program (3 <= n <= 20).

    State: dp[j, mask] = shortest path from vertex 0 through the vertex set
    ``mask`` (over vertices 1..n-1) ending at j.  Masks are processed by
    popcount, in chunks of about _SCAN_BLOCK // (n-1) masks: one gather of
    their rows, one min-plus pass c[j] = min_k dp[k, mask] + D[k+1, j+1] over
    contiguous buffers, and one scatter of the entries with bit j free into
    dp[j, mask | 1<<j] (no target is hit twice).  Memory is the
    O(2^(n-1) n) float64 table plus the masks sorted by popcount: a
    tracemalloc peak of 84.5 MiB at n = 20.
    """
    t0 = time.perf_counter()
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    if not 3 <= n <= HELD_KARP_MAX_N:
        raise ValueError(f"held_karp handles 3 <= n <= {HELD_KARP_MAX_N}, got n={n}")
    D = _pairwise(pts, metric)
    m = n - 1
    size = 1 << m
    W = D[1:, 1:]
    dp = np.full((m, size), np.inf)
    js = np.arange(m)
    dp[js, 1 << js] = D[0, 1:]
    flat = dp.reshape(-1)

    pop = np.zeros(size, dtype=np.int8)
    for b in range(m):
        pop[1 << b : 2 << b] = pop[: 1 << b] + 1
    by_pop = np.argsort(pop, kind="stable")
    starts = np.cumsum(np.bincount(pop, minlength=m + 1))
    step = max(1, _SCAN_BLOCK // m)
    bits = (1 << js)[:, None]
    rows = (js * size)[:, None]

    for k in range(1, m):
        for lo in range(starts[k - 1], starts[k], step):
            chunk = by_pop[lo : min(lo + step, starts[k])]
            V = dp.take(chunk, axis=1)  # C-ordered, so each V[i] is contiguous
            c = V[0] + W[0][:, None]
            tmp = np.empty_like(c)
            for i in range(1, m):
                np.add(V[i], W[i][:, None], out=tmp)
                np.minimum(c, tmp, out=c)
            free = (chunk & bits) == 0
            flat[(rows + (chunk | bits))[free]] = c[free]

    full = size - 1
    totals = dp[:, full] + D[1:, 0]
    j = int(np.argmin(totals))
    best_len = float(totals[j])

    # walk the DP backwards; the recomputed candidate row contains dp[j, mask]
    # bit-exactly, so argmin recovers a true predecessor
    mask = full
    rev = [j + 1]
    while mask != (1 << j):
        pmask = mask ^ (1 << j)
        row = dp[:, pmask] + D[1:, j + 1]
        i = int(np.argmin(row))
        mask, j = pmask, i
        rev.append(j + 1)
    order = [0] + rev[::-1]
    return ExactResult(
        length=best_len,
        tour=Tour.from_order(order, cached_length=best_len, metric=Metric.parse(metric)),
        algorithm="heldkarp",
        elapsed=time.perf_counter() - t0,
    )


def mst_length(inst_or_points, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """Minimum-spanning-tree weight: the join keys of Prim's tree from
    vertex 0, ties to the smallest index, added in join order.

    ``_candidate_keys`` finds the keys from k-nearest candidates and
    certifies them; where it cannot, ``tour._nn_walk`` grows the tree over
    the live vertices, one coordinate row per join.  Both give the same keys
    in the same order, so the weight has the same bits either way.
    """
    pts = _coords(inst_or_points)
    keys = _candidate_keys(pts, Metric.parse(metric))
    if keys is None:
        _, keys = _nn_walk(pts, metric, tree=True)
    total = 0.0
    for w in keys:
        total += w
    return total


def _candidate_keys(pts: np.ndarray, metric: Metric) -> list[float] | None:
    """Prim's join keys from each point's _MST_NEIGHBOURS nearest neighbours,
    or None where they are not certified to be dense Prim's.

    The candidates come from one KD-tree query, and their weights from
    ``geometry._per_axis``, the walk's arithmetic.  r[x] is the tree's
    distance to x's last candidate, shrunk by a relative 2^-40 to cover the
    tree's own rounding (squared for l2sq): no other point is nearer to x.
    With distinct positive weights the candidate graph has one MST, which
    ``_boruvka`` finds and a heap replays in Prim's join order from vertex 0.
    Join s is certified when max(min r over the tree, min r over the live
    points) exceeds its key: an edge across the cut that is no candidate
    weighs at least that, so the join is the unique lightest edge across the
    cut, the one dense Prim takes, with the same bits.  Coincident points,
    tied weights (a sigma = 0 lattice) and candidates that do not span give
    None, as do the inputs ``_builds_tree`` turns away.
    """
    n, dim = pts.shape
    if not _builds_tree(dim, n):
        return None
    from scipy.spatial import cKDTree

    k = _MST_NEIGHBOURS
    dist, nbr = cKDTree(pts).query(pts, k=k + 1, p=1 if metric is Metric.MANHATTAN else 2)
    r = dist[:, -1] * (1.0 - 2.0**-40)
    if metric is Metric.SQ_EUCLIDEAN:
        r *= r
    # each candidate pair once, as a < b; a point's self is column 0 unless
    # a coincident point took it, and then a weight is 0
    u, v = np.repeat(np.arange(n), k), nbr[:, 1:].ravel()
    ab = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    a, b = np.divmod(ab[np.insert(ab[1:] != ab[:-1], 0, True)], n)
    w = _per_axis(metric, *(pts[a] - pts[b]).T)
    rank = w.argsort()
    a, b, w = a[rank], b[rank], w[rank]
    if not w[0] > 0.0 or (w[1:] == w[:-1]).any():
        return None

    tree = _boruvka(n, a, b)
    if tree.size != n - 1:
        return None
    order, keys = _prim_replay(n, a[tree], b[tree], w[tree])
    rr = r[order]
    bound = np.maximum(np.minimum.accumulate(rr)[:-1], np.minimum.accumulate(rr[::-1])[::-1][1:])
    return keys.tolist() if (bound > keys).all() else None


def _builds_tree(dim: int, n: int) -> bool:
    """Whether ``mst_length`` on n points in dim dimensions tries the
    KD-tree candidates (and so imports ``scipy.spatial``): only in 2-d, and
    above _MST_NEIGHBOURS points, the least n the query is defined for.  On
    1-d uniform points the certificate fails, and they paid for both paths;
    d >= 3 is untried.  ``harness.run_sweep`` asks it too, to import
    ``scipy.spatial`` before it forks."""
    return dim == 2 and n > _MST_NEIGHBOURS


def _boruvka(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum spanning forest of the edges (a[e], b[e]) ranked by e, as
    its sorted edge indices.

    Each round, every component takes its lowest-ranked edge out, and the
    hooks merge by pointer jumping; of two components that took the same
    edge, only the larger-labelled one hooks.
    """
    comp, alive = np.arange(n), np.arange(a.size)
    picked = np.zeros(a.size, dtype=bool)
    while True:
        ca, cb = comp[a[alive]], comp[b[alive]]
        out = ca != cb
        if not out.any():
            return np.flatnonzero(picked)
        alive, ca, cb = alive[out], ca[out], cb[out]
        best = np.full(n, a.size)
        np.minimum.at(best, ca, alive)
        np.minimum.at(best, cb, alive)
        roots = np.flatnonzero(best < a.size)
        e = best[roots]
        picked[e] = True
        pa = comp[a[e]]
        other = np.where(pa == roots, comp[b[e]], pa)
        parent = np.arange(n)
        parent[roots] = other
        mutual = (parent[other] == roots) & (roots < other)
        parent[roots[mutual]] = roots[mutual]
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
        comp = parent[comp]


def _prim_replay(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's join order and keys from vertex 0 on the spanning tree whose
    edges (a[e], b[e]) are sorted by their distinct weights w[e]."""
    ends = np.concatenate((a, b))
    by_end = ends.argsort(kind="stable")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n), out=start[1:])
    # the heap holds edge indices, which sort as the weights do; on a tree
    # each edge but the one x joined by leads to a point not yet joined
    edge, far = (by_end % (n - 1)).tolist(), np.concatenate((b, a))[by_end].tolist()
    start, to = start.tolist(), [0] * (n - 1)
    joins, heap, via, x = [], [], -1, 0
    for _ in range(n - 1):
        for j in range(start[x], start[x + 1]):
            if edge[j] != via:
                to[edge[j]] = far[j]
                heapq.heappush(heap, edge[j])
        via = heapq.heappop(heap)
        x = to[via]
        joins.append(via)
    return np.array([0] + [to[e] for e in joins]), w[joins]


def _upper_bound(points, metric: Metric | str) -> float | None:
    """2 MST, which bounds the optimal tour from above; None under l2sq."""
    if Metric.parse(metric) is Metric.SQ_EUCLIDEAN:
        return None
    return 2.0 * mst_length(points, metric)


def _ratio(length: float, optimum: float | None) -> float | None:
    """length / optimum; None without a bound or when it is 0."""
    return length / optimum if optimum else None


def estimate_two_opt_max(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    restarts: int = 50,
    pivot: str = "first",
    eps: float = _EPS,
    seed: int = 0,
) -> float:
    """Largest 2-optimal tour length seen over random-restart runs.

    Restart r draws its seed from SeedSequence(seed).spawn(...)[r], and its
    record is run_two_opt(..., init="random", seed=that seed)'s; since
    spawning is prefix-stable, increasing ``restarts`` can only add runs,
    never change earlier ones, so the estimate is monotone non-decreasing.
    The restarts run in lockstep batches of about _SCAN_BLOCK // (n+1)^2
    tours (all 50 of the default at n = 12, one from n = 128 on), so the
    batches' position matrices hold about _SCAN_BLOCK elements; the batch
    size changes no result.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    seeds = [int(child.generate_state(1, np.uint64)[0])
             for child in np.random.SeedSequence(seed).spawn(restarts)]
    return max(run.final_length for run in _runs(inst_or_points, metric, "random", pivot, eps, seeds))


def edge_length_histogram(
    tour: Tour,
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    opt_length: float | None = None,
) -> list[tuple[int, float, int]]:
    """Bucket tour edges by the dyadic scale [OPT/2^i, OPT/2^(i-1)).

    The index of an edge of length L is ceil(log2(OPT/L)); exact powers of
    two land on the smaller index (their bucket's upper end).  Indices may be
    <= 0 when an edge is at least as long as OPT (possible without the
    triangle inequality).  Zero-length edges go to OVERFLOW_BIN.  If
    ``opt_length`` is omitted it is computed exactly (so n must be <= 20).

    Returns (bin index, total length in bin, edge count) sorted by index;
    the total lengths sum to the tour length exactly.
    """
    pts = _coords(inst_or_points)
    order = _tour_order(tour, pts.shape[0])
    if opt_length is None:
        opt_length = held_karp(pts, metric).length
    if not 0.0 < opt_length < math.inf:
        raise ValueError(f"optimal length must be positive and finite, got {opt_length}")
    p = pts[order]
    lengths = vec_dist(p, np.roll(p, -1, axis=0), metric)
    bins: dict[int, list] = {}
    for length in lengths:
        length = float(length)
        if length <= 0.0:
            i = OVERFLOW_BIN
        else:
            i = math.ceil(math.log2(opt_length / length))
            i = min(i, OVERFLOW_BIN)
        slot = bins.setdefault(i, [0.0, 0])
        slot[0] += length
        slot[1] += 1
    return [(i, bins[i][0], bins[i][1]) for i in sorted(bins)]
