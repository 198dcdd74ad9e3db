"""The 2-opt engine: tours, 2-changes, pivot rules, runs and linked pairs.

A tour is stored as an order array (position -> vertex) canonicalized so that
vertex 0 sits at position 0; rotation is the only normalization, direction is
preserved.  A 2-change removes the tour edges (x1,x2) and (x3,x4) -- indices
in tour order -- and reconnects as (x1,x3), (x2,x4), reversing the segment in
between.  Its gain is positive when the tour gets shorter.

One gain kernel serves every scan: row i holds the gains of the pairs
(i, j), j >= i+2, skipping the adjacent wrap-around pair (0, n-1) on a
closed tour.  The kernel computes a block of rows at once, about
``_SCAN_BLOCK`` gains, as one array expression; a pivot rule is a reduction
over the blocks, each read in row-major, that is lexicographic, order:

* ``first``  -- the first pair with gain > eps (its blocks start small and
  grow, since the scan usually stops early);
* ``best``   -- the maximum gain, earliest pair on ties;
* ``random`` -- uniform over all improving pairs: count, then pick (needs a
  seed).

``run_two_opt`` holds one (n+1) x (n+1) position matrix per run,
P[a, b] = d(order[a % n], order[b % n]).  The tour's edge lengths are its
first superdiagonal and the kernel's distance blocks are plain slices of
it; each applied change reverses the matching rows and columns in place.
The layered path 2-opt computes its blocks from coordinates.  The
arithmetic is the same, so every caller sees bit-identical gains.

``find_improving`` and ``certify_two_optimality`` scan once from
coordinates, and on a tour with few long edges they evaluate only the pairs
that a KD-tree ball query cannot rule out (fixed-radius near neighbours,
Bentley 1992, used as an exact filter).  The filter is exact: write
el_i = d(x1,x2), el_j = d(x3,x4), and let tau be an ulp of 2 max(el).  If
the computed d13 = d(x1,x3) >= el_i + tau and d24 = d(x2,x4) >= el_j + tau,
the kernel's left-to-right ``(el_i + el_j) - d13 - d24`` is <= 0: the first
sum rounds up by at most tau, so the first subtraction stays <= el_j, and
the second is then <= -tau.  So every pair with gain > eps > 0 has x3 in the
ball of radius el_i + tau around x1 (which gives j) or x2 in the ball of
radius el_j + tau around x4 (which gives i + 1).  The radii are inflated by
a relative 2^-40 to cover the tree's own rounding; l1 is queried with p = 1,
and l2sq as an l2 ball of the square-root radius.  The candidates' gains are
computed with the kernel's arithmetic and reduced in lexicographic order,
with the same random draw, so the pick is the blocked kernel's, bit for bit.
When the balls hold more than ``_PRUNE_SHARE`` of the pairs (a random tour,
say) the blocked kernel is faster and runs instead.

``run_two_opt`` iterates scan+apply until no improving pair remains and
certifies termination with a final full scan.  eps must be finite and > 0:
a change counts as improving when its gain is > eps.  ``min_improvement``
computes the smallest positive gain over *all* ordered vertex quadruples,
which upper bounds the number of iterations by initial_length /
min_improvement.

The second half implements the linked-pair taxonomy for sequences of applied
2-changes (an edge added by one change and removed by another): pairs sharing
all four vertices (type 2), five vertices (type 1a/1b, split by whether the
second change also re-creates an edge the first removed), or six (type 0),
plus a counter for large sets of pairwise change-disjoint pairs of type 0/1.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
from typing import IO, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Metric, as_points, pairwise_distances, vec_dist

__all__ = [
    "Tour",
    "TwoChange",
    "Violation",
    "RunRecord",
    "LinkedPairType",
    "tour_length",
    "initial_tour",
    "find_improving",
    "apply_two_change",
    "run_two_opt",
    "certify_two_optimality",
    "min_improvement",
    "classify_linked_pair",
    "count_disjoint_linked_pairs",
    "linked_pair_bound",
]

Edge = tuple[int, int]


def _coords(inst_or_points) -> np.ndarray:
    """Accept an Instance-like object (``.points``) or a raw coordinate array."""
    pts = getattr(inst_or_points, "points", inst_or_points)
    return as_points(pts)


def _tour_order(tour, n: int) -> np.ndarray:
    """The order array of a Tour or vertex sequence, checked to be a permutation of 0..n-1."""
    order = tour.order if isinstance(tour, Tour) else np.asarray(tour, dtype=np.int64).ravel()
    if order.size != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"tour order is not a permutation of 0..{n - 1}")
    return order


@dataclasses.dataclass
class Tour:
    """A cyclic visiting order.

    Attributes:
        order: (n,) int array, position -> vertex; order[0] == 0.
        cached_length: optional length under ``metric``; kept in sync by
            apply_two_change (new length = old length - gain).
        metric: token of the metric the cache refers to, if any.
    """

    order: np.ndarray
    cached_length: float | None = None
    metric: str | None = None

    @classmethod
    def from_order(
        cls,
        order,
        cached_length: float | None = None,
        metric: Metric | str | None = None,
    ) -> "Tour":
        """Validate a permutation and canonicalize its rotation."""
        arr = np.asarray(order, dtype=np.int64).ravel()
        if arr.size < 3:
            raise ValueError("a tour needs at least three vertices")
        _tour_order(arr, arr.size)
        shift = int(np.flatnonzero(arr == 0)[0])
        arr = np.roll(arr, -shift)
        token = Metric.parse(metric).value if metric is not None else None
        return cls(order=arr, cached_length=cached_length, metric=token)

    @property
    def n(self) -> int:
        return int(self.order.size)

    def positions(self) -> np.ndarray:
        """Inverse index: vertex -> position."""
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.order] = np.arange(self.n)
        return pos

    def edges(self) -> list[Edge]:
        nxt = np.roll(self.order, -1)
        return [(int(a), int(b)) for a, b in zip(self.order, nxt)]


@dataclasses.dataclass(frozen=True)
class TwoChange:
    """Removed tour edges (x1,x2),(x3,x4); added edges (x1,x3),(x2,x4)."""

    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]
    gain: float

    def inverse(self) -> "TwoChange":
        return TwoChange(removed=self.added, added=self.removed, gain=-self.gain)

    def to_dict(self) -> dict:
        return {
            "removed": [list(e) for e in self.removed],
            "added": [list(e) for e in self.added],
            "gain": self.gain,
        }


@dataclasses.dataclass(frozen=True)
class Violation:
    """An improving pair found by the certifier (maximum gain over the tour)."""

    i: int
    j: int
    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]
    gain: float


class LinkedPairType(enum.Enum):
    NOT_LINKED = "not_linked"
    TYPE_0 = "type0"
    TYPE_1A = "type1a"
    TYPE_1B = "type1b"
    TYPE_2 = "type2"


@dataclasses.dataclass
class RunRecord:
    """Everything observed during one run_two_opt call.

    iterations always equals the number of applied changes; ``changes`` is
    populated when the run was asked to keep them.  JSON field names match
    the attribute names exactly.
    """

    seed: int
    metric: str
    pivot: str
    init: str
    n: int
    eps: float
    initial_length: float
    final_length: float
    iterations: int
    min_gain_observed: float | None
    converged: bool
    final_order: list[int]
    changes: list[TwoChange] = dataclasses.field(default_factory=list)

    def to_json(self, fp: IO[str] | None = None, include_changes: bool = False) -> str:
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self) if f.name != "changes"
        }
        if include_changes:
            payload["changes"] = [c.to_dict() for c in self.changes]
        text = json.dumps(payload)
        if fp is not None:
            fp.write(text)
        return text


# ---------------------------------------------------------------------------
# lengths and construction heuristics


def tour_length(tour: Tour | Sequence[int], inst_or_points, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """Length of the closed tour under the metric."""
    pts = _coords(inst_or_points)
    p = pts[_tour_order(tour, pts.shape[0])]
    return float(vec_dist(p, np.roll(p, -1, axis=0), metric).sum())


PIVOTS = ("first", "best", "random")


def _rule_token(rule: str) -> str:
    aliases = {
        "random": "random",
        "nearest_neighbor": "nearest_neighbor",
        "nn": "nearest_neighbor",
        "greedy_insertion": "greedy_insertion",
        "greedy": "greedy_insertion",
    }
    try:
        return aliases[rule]
    except KeyError:
        raise ValueError(f"unknown initial-tour rule {rule!r}") from None


def _check_pivot(pivot: str) -> None:
    if pivot not in PIVOTS:
        raise ValueError(f"unknown pivot rule {pivot!r}")


def _check_stopping(eps: float, max_iter: int | None = None) -> None:
    """Reject a stopping rule that could loop forever or stop at once.

    A change counts as improving when its gain is > eps, so eps must be
    finite and > 0: eps <= 0 lets zero-gain changes cycle, and NaN makes
    every comparison false.  max_iter, if given, must be >= 0.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")


def initial_tour(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    rule: str = "random",
    seed: int | np.random.Generator = 0,
) -> Tour:
    """Build a starting tour.

    Rules: "random" (uniform permutation, canonical rotation),
    "nearest_neighbor" (start at vertex 0, ties to the smallest index) and
    "greedy_insertion" (cheapest insertion from vertex 0; ties prefer the
    smallest vertex, then the earliest tour edge).  Only "random" consumes
    randomness; ``seed`` may be an int or a numpy Generator.  The
    nearest-neighbour walk reads coordinate rows; only greedy insertion
    builds a distance matrix, and frees it on return.
    """
    pts = _coords(inst_or_points)
    rule = _rule_token(rule)
    n = pts.shape[0]
    if rule == "random":
        rng = np.random.default_rng(seed)
        return Tour.from_order(rng.permutation(n))
    if rule == "nearest_neighbor":
        return Tour.from_order(_nn_walk(n, lambda v: vec_dist(pts[v], pts, metric)))
    # greedy_insertion: each remaining vertex keeps its cheapest insertion
    # cost and the position of the earliest tour edge that attains it.  An
    # insertion replaces one edge by two, so only the vertices whose best
    # edge was the replaced one are priced against the whole tour again.
    D = pairwise_distances(pts, metric)
    order = np.zeros(1, dtype=np.int64)
    rest = np.arange(1, n)
    if rest.size:
        v = rest[np.argmin(D[0, rest])]
        order = np.append(order, v)
        rest = rest[rest != v]
    cost, edge = _cheapest_insertions(D, order, rest)
    while rest.size:
        k = int(np.argmin(cost))
        e, v = int(edge[k]), rest[k]
        a, b = order[e], order[(e + 1) % order.size]
        order = np.insert(order, e + 1, v)
        rest, cost, edge = np.delete(rest, k), np.delete(cost, k), np.delete(edge, k)
        stale = edge == e
        edge[edge > e] += 1
        for pos, x, y in ((e, a, v), (e + 1, v, b)):
            c = D[x, rest] + D[y, rest] - D[x, y]
            take = (c < cost) | ((c == cost) & (pos < edge))
            cost[take], edge[take] = c[take], pos
        if stale.any():
            cost[stale], edge[stale] = _cheapest_insertions(D, order, rest[stale])
    return Tour.from_order(order)


def _cheapest_insertions(D: np.ndarray, order: np.ndarray, ws: np.ndarray):
    """Per vertex of ws: the cheapest insertion cost D[a,w] + D[b,w] - D[a,b]
    over the tour edges (a, b), and the position of the earliest edge attaining it.

    Priced in blocks of about _SCAN_BLOCK costs, so a call holds no large
    temporaries.
    """
    a, b = order, np.roll(order, -1)
    ab = D[a, b]
    cost, edge = np.empty(ws.size), np.empty(ws.size, dtype=np.int64)
    step = max(1, _SCAN_BLOCK // order.size)
    for r0 in range(0, ws.size, step):
        w = ws[r0 : r0 + step, None]
        c = D[w, a]  # D is symmetric, so rows of w read as the columns D[a, w]
        c += D[w, b]
        c -= ab
        edge[r0 : r0 + step] = np.argmin(c, axis=1)
        cost[r0 : r0 + step] = c.min(axis=1)
    return cost, edge


def _nn_walk(n: int, row) -> list[int]:
    """Nearest-neighbour order of vertices 0..n-1 from vertex 0.

    ``row(v)`` gives the distances from v to all n vertices; each step moves
    to the nearest unvisited vertex, ties to the smallest index.
    """
    visited = np.zeros(n, dtype=bool)
    order = [0]
    visited[0] = True
    for _ in range(n - 1):
        cur = int(np.argmin(np.where(visited, np.inf, row(order[-1]))))
        visited[cur] = True
        order.append(cur)
    return order


# ---------------------------------------------------------------------------
# scans

# Gains per kernel block, and in the first block of a first-improvement scan
# (it grows by doubling): a scan that stops early stays cheap, and a small
# instance is one block.  Also the element budget of a matrix flip.
_SCAN_BLOCK = 2**15
_SCAN_FIRST = 2**10
# A block has at most isqrt(_SCAN_BLOCK) rows (see _blocks); its pairs
# (i, j) with j < i + 2 lie strictly below this triangle's diagonal.
_BELOW = np.tri(math.isqrt(_SCAN_BLOCK) + 1, k=-1, dtype=bool)
# A coordinate scan evaluates only its ball candidates while the ball
# points number at most this share of the n(n-3)/2 pairs.  A candidate costs
# about 0.5-0.9 us (Python lists from the tree) and a pair of the blocked
# kernel about 70-110 ns; on partly shuffled 2-opt tours at n = 400 and 1500
# the two took equal time at a share of about 0.16 and 0.13.
_PRUNE_SHARE = 1 / 16


def _blocks(m: int, start: int, budget: int):
    """Row ranges [i0, i1) covering rows start..m-3, about ``budget`` gains each.

    Row i pairs with the columns i+2..m-1, so a block of rows [i0, i1) spans
    the columns i0+2..m-1.  The budget doubles after each block up to
    _SCAN_BLOCK.  A block never has more rows than columns, so rows**2 <=
    budget.
    """
    i0 = start
    while i0 < m - 2:
        cols = m - i0 - 2
        i1 = i0 + max(1, min(cols, budget // cols))
        yield i0, i1
        i0, budget = i1, min(2 * budget, _SCAN_BLOCK)


def _scan(pivot: str, eps: float, el: np.ndarray, dists,
          closed: bool = True, start: int = 0, rng: np.random.Generator | None = None):
    """The pair (i, j, gain) the pivot rule picks among gains > eps, or None.

    Edge k has length el[k]; the pair (i, j), i+2 <= j < len(el), has gain
    el[i] + el[j] - d13 - d24, where ``dists(i0, i1, c0)`` gives the blocks
    d13 and d24 of the pairs with rows i0..i1-1 and columns c0.. (the
    distances between the first and between the second endpoints of the two
    edges).  On a closed tour the adjacent pair (0, last) is left out.  Rows
    before ``start`` are not scanned.  Blocks are reduced in row-major, that
    is lexicographic, order.
    """
    m = el.size

    def gains(i0: int, i1: int) -> np.ndarray:
        c0 = i0 + 2
        d13, d24 = dists(i0, i1, c0)
        g = np.add(el[i0:i1, None], el[None, c0:])
        g -= d13
        g -= d24
        rows = i1 - i0
        g[:, :rows][_BELOW[:rows, :rows]] = -np.inf
        if closed and i0 == 0:
            g[0, -1] = -np.inf
        return g

    def pair(i0: int, g: np.ndarray, k: int):
        r, c = divmod(k, g.shape[1])
        return i0 + r, i0 + 2 + c, float(g[r, c])

    if pivot == "first":
        for i0, i1 in _blocks(m, start, _SCAN_FIRST):
            g = gains(i0, i1)
            good = g > eps
            k = int(np.argmax(good))
            if good.flat[k]:
                return pair(i0, g, k)
        return None
    if pivot == "best":
        best = None
        for i0, i1 in _blocks(m, start, _SCAN_BLOCK):
            g = gains(i0, i1)
            k = int(np.argmax(g))
            if g.flat[k] > eps and (best is None or g.flat[k] > best[2]):
                best = pair(i0, g, k)
        return best
    blocks = list(_blocks(m, start, _SCAN_BLOCK))
    counts = [int(np.count_nonzero(gains(i0, i1) > eps)) for i0, i1 in blocks]
    total = sum(counts)
    if total == 0:
        return None
    r = int(rng.integers(total))
    for (i0, i1), count in zip(blocks, counts):
        if r < count:
            g = gains(i0, i1)
            return pair(i0, g, int(np.flatnonzero(g > eps)[r]))
        r -= count
    raise AssertionError("unreachable: improving-pair index out of range")


def _coord_dists(a: np.ndarray, b: np.ndarray, metric):
    """Kernel blocks from coordinates: edge k runs from point a[k] to point b[k]."""
    def dists(i0: int, i1: int, c0: int):
        return (vec_dist(a[i0:i1, None], a[None, c0:], metric),
                vec_dist(b[i0:i1, None], b[None, c0:], metric))
    return dists


def _ball_keys(p: np.ndarray, pn: np.ndarray, el: np.ndarray, metric) -> np.ndarray | None:
    """Sorted keys i*n + j of the pairs a ball query cannot rule out, or None if too many.

    Edge k runs from p[k] to pn[k] and has length el[k].  A pair (i, j) is a
    candidate when p[j] lies in the ball of radius el[i] + tau around p[i],
    or p[i+1] in the ball of radius el[j] + tau around p[j+1] (see the module
    docstring); one tree over p answers both queries.  The pairs j < i + 2
    and the closed tour's (0, n-1) are dropped.  A count of the ball points
    decides first: above _PRUNE_SHARE of the n(n-3)/2 pairs, None.
    """
    n = el.size
    m = Metric.parse(metric)
    tau = np.spacing(2 * el.max())
    if not np.isfinite(tau):  # a distance overflowed; no ulp bounds its rounding
        return None
    r = (el + tau) * (1 + 2.0**-40)
    if m is Metric.SQ_EUCLIDEAN:
        r = np.sqrt(r)
    minkowski = 1 if m is Metric.MANHATTAN else 2
    tree = cKDTree(p)
    centres, radii = np.concatenate((p, pn)), np.concatenate((r, r))
    counts = tree.query_ball_point(centres, radii, p=minkowski, return_length=True)
    total = int(counts.sum())
    if total > _PRUNE_SHARE * (n * (n - 3) // 2):
        return None
    hits = tree.query_ball_point(centres, radii, p=minkowski)
    centre = np.repeat(np.arange(2 * n), counts)
    k = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=total)
    # around p[i] a hit is j; around p[j+1] (centre n + j) it is i + 1
    around_x1 = centre < n
    i = np.where(around_x1, centre, k - 1)
    j = np.where(around_x1, k, centre - n)
    keep = (i >= 0) & (j >= i + 2)
    keys = np.unique(i[keep] * n + j[keep])
    return keys[keys != n - 1]


def _scan_points(p: np.ndarray, metric, pivot: str, eps: float, rng=None):
    """_scan over the closed tour through the points p, distances from coordinates.

    Only the pairs of _ball_keys are evaluated when it gives them: their
    gains use the kernel's arithmetic, ``first`` takes the smallest key with
    gain > eps, ``best`` the first maximum and ``random`` the same single
    draw over the improving pairs in key order, so the pick is _scan's.
    """
    pn = np.roll(p, -1, axis=0)
    el = vec_dist(p, pn, metric)
    keys = _ball_keys(p, pn, el, metric)
    if keys is None:
        return _scan(pivot, eps, el, _coord_dists(p, pn, metric), rng=rng)
    i, j = np.divmod(keys, el.size)
    g = np.add(el[i], el[j])
    g -= vec_dist(p[i], p[j], metric)
    g -= vec_dist(pn[i], pn[j], metric)
    good = np.flatnonzero(g > eps)
    if good.size == 0:
        return None
    if pivot == "first":
        k = good[0]
    elif pivot == "best":
        k = np.argmax(g)
    else:
        k = good[int(rng.integers(good.size))]
    return int(i[k]), int(j[k]), float(g[k])


def _make_change(order: np.ndarray, i: int, j: int, gain: float) -> TwoChange:
    n = order.size
    x1, x2 = int(order[i]), int(order[(i + 1) % n])
    x3, x4 = int(order[j]), int(order[(j + 1) % n])
    return TwoChange(removed=((x1, x2), (x3, x4)), added=((x1, x3), (x2, x4)), gain=gain)


def _flip(P: np.ndarray, lo: int, hi: int) -> None:
    """Reverse rows and columns lo..hi-1 of P in place, swapping a few at a time."""
    half = (hi - lo) // 2
    step = max(1, _SCAN_BLOCK // P.shape[0])
    for k in range(0, half, step):
        e = min(k + step, half)
        top, bottom = slice(lo + k, lo + e), slice(hi - e, hi - k)
        tmp = P[top].copy()
        P[top] = P[bottom][::-1]
        P[bottom] = tmp[::-1]
        tmp = P[:, top].copy()
        P[:, top] = P[:, bottom][:, ::-1]
        P[:, bottom] = tmp[:, ::-1]


def _outer(n: int, i: int, j: int) -> bool:
    """Whether _reverse_segment reverses the outer side of the pair (i, j)."""
    return 2 * (j - i) > n


def _reverse_segment(order: np.ndarray, i: int, j: int, P: np.ndarray | None = None) -> np.ndarray:
    """Reverse positions i+1..j (inclusive) in place; picks the shorter side, ties inner.

    The outer side is reversed as three flips -- positions i+1..j, then
    0..i, then i+1..n-1 -- which leaves the order rotated: it starts at
    order[i].  ``P``, the (n+1) x (n+1) position matrix of ``order``, is
    kept in step; its wrap row and column n are copies of row and column 0.
    """
    n = order.size
    flips = [(i + 1, j + 1)]
    if _outer(n, i, j):
        flips += [(0, i + 1), (i + 1, n)]
    for lo, hi in flips:
        order[lo:hi] = order[lo:hi][::-1]
        if P is not None:
            _flip(P, lo, hi)
            P[n] = P[0]
            P[:, n] = P[:, 0]
    return order


def _added_positions(n: int, i: int, j: int) -> tuple[int, int]:
    """Positions of the two edges the change (i, j) adds, after _reverse_segment.

    The inner side leaves them at i and j.  The outer side's flips turn
    A + B + C (B = positions i+1..j) into rev(A) + rev(C) + B, so they sit
    at n-1-(j-i) and at the wrap position n-1.
    """
    return (n - 1 - (j - i), n - 1) if _outer(n, i, j) else (i, j)


def find_improving(
    tour: Tour,
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    pivot: str = "first",
    eps: float = 1e-12,
    seed: int | np.random.Generator | None = None,
) -> TwoChange | None:
    """Search the tour for an improving 2-change under the pivot rule.

    One scan, so it reads distances from coordinates (no n x n matrix).  A
    pair with gain > eps has d(x1,x3) < d(x1,x2) + tau or d(x2,x4) <
    d(x3,x4) + tau, with tau an ulp of twice the longest edge (the module
    docstring shows why), so only the pairs a KD-tree ball query finds are
    evaluated while they are few; the pick, and the draw of a random pivot,
    are those of the full scan, bit for bit.
    """
    _check_pivot(pivot)
    _check_stopping(eps)
    pts = _coords(inst_or_points)
    order = _tour_order(tour, pts.shape[0])
    hit = _scan_points(pts[order], metric, pivot, eps, np.random.default_rng(seed))
    if hit is None:
        return None
    return _make_change(order, *hit)


def apply_two_change(tour: Tour, change: TwoChange) -> Tour:
    """Apply a 2-change, returning a new canonicalized Tour.

    The removed edges are located by vertex (either traversal direction);
    the change's added edges must match the reconnection they force.
    """
    order = tour.order
    n = order.size
    pos = tour.positions()

    def edge_position(edge: Edge) -> int:
        a, b = edge
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge {edge} has vertices outside the tour")
        if order[(pos[a] + 1) % n] == b:
            return int(pos[a])
        if order[(pos[b] + 1) % n] == a:
            return int(pos[b])
        raise ValueError(f"edge {edge} is not in the tour")

    (e1, e2) = change.removed
    if len({e1[0], e1[1], e2[0], e2[1]}) != 4:
        raise ValueError(f"removed edges {change.removed} are not disjoint")
    i, j = edge_position(e1), edge_position(e2)
    if i > j:
        i, j = j, i
    if i == j or j == i + 1 or (i == 0 and j == n - 1):
        raise ValueError(f"removed edges {change.removed} are adjacent in the tour")
    produced = {frozenset((int(order[i]), int(order[j]))),
                frozenset((int(order[(i + 1) % n]), int(order[(j + 1) % n])))}
    wanted = {frozenset(change.added[0]), frozenset(change.added[1])}
    if produced != wanted:
        raise ValueError(
            f"added edges {change.added} do not reconnect the removed pair into a tour"
        )
    new_order = _reverse_segment(order.copy(), i, j)
    cached = None
    if tour.cached_length is not None:
        cached = tour.cached_length - change.gain
    return Tour.from_order(new_order, cached_length=cached, metric=tour.metric)


def run_two_opt(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    init: str = "random",
    pivot: str = "first",
    eps: float = 1e-12,
    seed: int = 0,
    max_iter: int | None = None,
    keep_changes: bool = True,
) -> RunRecord:
    """Run 2-opt to local optimality.

    One RNG (seeded with ``seed``) drives both the random initial tour and
    the random pivot, so a record is reproducible from its parameters.  The
    run ends when a full scan finds no pair with gain > eps (converged=True)
    or when max_iter changes have been applied (converged=False).  It raises
    ValueError when a change would undo the one before it, which only
    rounding can make look improving at this eps.
    """
    _check_pivot(pivot)
    rule = _rule_token(init)
    _check_stopping(eps, max_iter)
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    order = initial_tour(pts, metric, rule, rng).order.copy()
    # the position matrix P[a, b] = d(order[a % n], order[b % n]): the tour's
    # edges lie on its first superdiagonal and the kernel's blocks are slices
    P = pairwise_distances(pts[np.append(order, order[0])], metric)
    el = P.diagonal(1)
    initial_length = float(el.sum())

    def dists(i0: int, i1: int, c0: int):
        return P[i0:i1, c0:n], P[i0 + 1 : i1 + 1, c0 + 1 :]

    changes: list[TwoChange] = []
    iterations = 0
    min_gain: float | None = None
    converged = False
    undo = None  # the positions of the edges the last change added
    while True:
        hit = _scan(pivot, eps, el, dists, rng=rng)
        if hit is None:
            converged = True
            break
        if max_iter is not None and iterations >= max_iter:
            converged = False
            break
        i, j, gain = hit
        # removing both edges the last change added can only undo it, so both
        # gains are rounding residues; the run would flip between two tours
        if (i, j) == undo:
            raise ValueError(
                f"2-change {_make_change(order, i, j, gain).removed} undoes the previous "
                f"change: gains are at rounding level for eps={eps} (gain {gain:.3g}); "
                "raise eps or scale the coordinates down"
            )
        if keep_changes:
            changes.append(_make_change(order, i, j, gain))
        iterations += 1
        min_gain = gain if min_gain is None else min(min_gain, gain)
        order = _reverse_segment(order, i, j, P)
        undo = _added_positions(n, i, j)

    final_tour = Tour.from_order(order)
    final_length = float(np.roll(el, -int(np.flatnonzero(order == 0)[0])).sum())
    return RunRecord(
        seed=int(seed),
        metric=Metric.parse(metric).value,
        pivot=pivot,
        init=rule,
        n=n,
        eps=eps,
        initial_length=initial_length,
        final_length=final_length,
        iterations=iterations,
        min_gain_observed=min_gain,
        converged=converged,
        final_order=[int(v) for v in final_tour.order],
        changes=changes,
    )


def certify_two_optimality(
    inst_or_points,
    tour: Tour | Sequence[int],
    metric: Metric | str = Metric.EUCLIDEAN,
    eps: float = 1e-12,
) -> Violation | None:
    """Full scan for the maximum-gain improving pair; None if 2-optimal.

    Works directly from coordinates (no n x n matrix), so it stays cheap and
    bit-accurate on large, nearly-degenerate instances.  A pair can gain
    more than eps > 0 only if d(x1,x3) < d(x1,x2) + tau or d(x2,x4) <
    d(x3,x4) + tau, where tau is an ulp of twice the longest edge: otherwise
    the gain's left-to-right sum is <= 0 (see the module docstring).  So on
    a tour with few long edges, such as a designated 2-optimal one, only the
    pairs found by KD-tree ball queries of those radii are evaluated, and the
    verdict equals the full scan's bit for bit; O(n log n + candidates)
    instead of O(n^2) gains.
    """
    _check_stopping(eps)
    pts = _coords(inst_or_points)
    order = _tour_order(tour, pts.shape[0])
    worst = _scan_points(pts[order], metric, "best", eps)
    if worst is None:
        return None
    i, j, g = worst
    change = _make_change(order, i, j, g)
    return Violation(i=i, j=j, removed=change.removed, added=change.added, gain=g)


def min_improvement(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    eps: float = 1e-12,
) -> float | None:
    """Smallest gain above eps over all ordered vertex quadruples.

    Every 2-change any run could ever perform has gain of the form
    d(a,b) + d(c,d) - d(a,c) - d(b,d) for distinct a,b,c,d, so this value
    divides the total descent: iterations <= initial_length / min_improvement.
    Returns None when no quadruple improves.  O(n^4) work, O(n^2) memory.
    """
    _check_stopping(eps)
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    if n < 4:
        raise ValueError(f"min_improvement needs n >= 4, got {n}")
    D = pairwise_distances(pts, metric)
    best = math.inf
    idx = np.arange(n)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            g = D[a, b] + D - D[a][:, None] - D[b][None, :]
            g[a, :] = -np.inf
            g[b, :] = -np.inf
            g[:, a] = -np.inf
            g[:, b] = -np.inf
            g[idx, idx] = -np.inf
            pos = g[g > eps]
            if pos.size:
                best = min(best, float(pos.min()))
    return None if best is math.inf else best


# ---------------------------------------------------------------------------
# linked pairs


def _edge_sets(change: TwoChange) -> tuple[set[frozenset], set[frozenset]]:
    removed = {frozenset(e) for e in change.removed}
    added = {frozenset(e) for e in change.added}
    return removed, added


def classify_linked_pair(first: TwoChange, second: TwoChange) -> LinkedPairType:
    """Type of the (ordered) pair of 2-changes, by shared added/removed edge.

    The pair is linked when an edge added by one change is removed by the
    other.  With the changes sharing one such edge: 4 distinct vertices in
    total is type 2, 6 is type 0, and 5 splits into type 1b when the link
    runs both ways (the second change re-creates an edge the first removed)
    and type 1a otherwise.
    """
    r1, a1 = _edge_sets(first)
    r2, a2 = _edge_sets(second)
    forward = a1 & r2
    backward = a2 & r1
    if not forward and not backward:
        return LinkedPairType.NOT_LINKED
    vertices = set()
    for e in (*first.removed, *first.added, *second.removed, *second.added):
        vertices.update(e)
    k = len(vertices)
    if k == 4:
        return LinkedPairType.TYPE_2
    if k == 6:
        return LinkedPairType.TYPE_0
    if k == 5:
        return LinkedPairType.TYPE_1B if (forward and backward) else LinkedPairType.TYPE_1A
    raise ValueError(f"linked pair with {k} vertices cannot occur")


def linked_pair_bound(t: int, n: int) -> int:
    """Guaranteed number of disjoint type-0/1 pairs in t changes on n vertices."""
    return math.ceil(t / 7 - 3 * n / 28)


def count_disjoint_linked_pairs(
    changes: Sequence[TwoChange],
    n: int | None = None,
    exhaustive_limit: int = 60,
    method: str = "auto",
) -> tuple[int, list[tuple[int, int]]]:
    """Count pairwise change-disjoint linked pairs of type 0/1.

    Pairs are indices (i, j), i < j, into ``changes`` whose classification is
    type 0, 1a or 1b; "disjoint" means no 2-change belongs to two selected
    pairs.  A lexicographic greedy matching is used by default; when ``n`` is
    given, the greedy result falls short of the guaranteed bound and the
    sequence is short (len(changes) <= exhaustive_limit), an exact
    maximum-cardinality matching is computed instead.  method="greedy" or
    "exact" forces one strategy.

    Returns (count, selected pairs).
    """
    if method not in ("auto", "greedy", "exact"):
        raise ValueError(f"unknown method {method!r}")
    t = len(changes)
    added_by: dict[frozenset, list[int]] = {}
    removed_by: dict[frozenset, list[int]] = {}
    for idx, ch in enumerate(changes):
        removed, added = _edge_sets(ch)
        for e in added:
            added_by.setdefault(e, []).append(idx)
        for e in removed:
            removed_by.setdefault(e, []).append(idx)

    candidates: set[tuple[int, int]] = set()
    for e, adders in added_by.items():
        removers = removed_by.get(e)
        if not removers:
            continue
        for i in adders:
            for j in removers:
                if i != j:
                    candidates.add((min(i, j), max(i, j)))
    linked = [
        pair
        for pair in sorted(candidates)
        if classify_linked_pair(changes[pair[0]], changes[pair[1]])
        in (LinkedPairType.TYPE_0, LinkedPairType.TYPE_1A, LinkedPairType.TYPE_1B)
    ]

    def greedy() -> list[tuple[int, int]]:
        used: set[int] = set()
        picked = []
        for i, j in linked:
            if i not in used and j not in used:
                picked.append((i, j))
                used.update((i, j))
        return picked

    def exact() -> list[tuple[int, int]]:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(t))
        graph.add_edges_from(linked)
        matching = nx.max_weight_matching(graph, maxcardinality=True)
        return sorted((min(i, j), max(i, j)) for i, j in matching)

    if method == "exact":
        picked = exact()
    else:
        picked = greedy()
        if (
            method == "auto"
            and n is not None
            and len(picked) < linked_pair_bound(t, n)
            and t <= exhaustive_limit
        ):
            picked = exact()
    return len(picked), picked
