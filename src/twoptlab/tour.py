"""The 2-opt engine: tours, 2-changes, pivot rules, runs and linked pairs.

A tour is stored as an order array (position -> vertex) canonicalized so that
vertex 0 sits at position 0; rotation is the only normalization, direction is
preserved.  A 2-change removes the tour edges (x1,x2) and (x3,x4) -- indices
in tour order -- and reconnects as (x1,x3), (x2,x4), reversing the segment in
between.  Its gain is positive when the tour gets shorter.

One gain kernel serves every scan: row i holds the gains of the pairs
(i, j), j >= i+2, skipping the adjacent wrap-around pair (0, n-1) on a
closed tour.  The kernel computes a block of rows at once, about
``_SCAN_BLOCK`` gains, as one ``geometry._gain`` call over one block of
distances between tour positions, whatever their source: the pair (i, j)
reads d13 and d24 at its entries (i, j) and (i+1, j+1).  The pivot rules are
one reduction, ``_pick``, over the blocks in row-major (lexicographic) order:

* ``first``  -- the first pair with gain > eps (its blocks start small and
  grow, since the scan usually stops early);
* ``best``   -- the maximum gain, earliest pair on ties;
* ``random`` -- uniform over all improving pairs: count, then pick (needs a
  seed).

The engine's descent, ``_descend``, runs a batch of tours in lockstep.
It computes each tour's (n+1) x (n+1) position matrix,
P[a, b] = d(order[a % n], order[b % n]), from the tour-ordered points.  The
tour's edge lengths are its first superdiagonal and each kernel block's
distances are one slice of it, with a leading tour axis, so one kernel pass
scans every live tour of the batch.  Each step retires the tours with no
improving pair and applies one change to each of the others.  The descent
picks its step path once, from the batch's shape.  A larger batch moves
each tour's order and matrix with one gather and scans every pair again.
A batch of one reverses the matching rows and columns in place; when its
pairs exceed one kernel block it also keeps one summary per kernel row
across its steps (``_RowSummaries``), and whether it is known: under the
best pivot the row's largest gain, under first and random its count of
gains > eps.  A change of edges lo..hi-1 leaves every other gain's bits as
they were, so a step recomputes only rows lo..hi-1 and, in the rows below,
the columns lo..hi-1; the pick, the gain and the random draw stay _scan's,
bit for bit.
Both paths reach the same matrices, entry for entry.
One runner, ``_runs``, sets every descent up: it draws each seed's start,
hands each batch's start orders to ``_descend`` and returns
one ``RunRecord`` per seed.  ``run_two_opt`` is the runner over one seed
and ``exact.estimate_two_opt_max`` the largest final length over its
restarts' seeds.  The layered path 2-opt gathers its blocks from one
distance matrix over its points, fixed for the whole run; a reversal
permutes only the map from path positions to matrix rows.  The arithmetic
is the same, so every caller sees bit-identical gains.

``_nn_walk`` is the one greedy walk: the nearest-neighbour start, the
layered padding path and dense Prim, which is ``exact.mst_length``'s
fallback and the reference its k-nearest candidate path must match.  For
d <= 2 it holds its live points one contiguous copy per axis and computes
each row with ``geometry._per_axis`` into a buffer made once, so a step
costs a few ufunc calls over the live points and no ``vec_dist`` call.

``find_improving`` and ``certify_two_optimality`` scan once from
coordinates, and on a tour with few long edges they evaluate only the pairs
that a KD-tree ball query cannot rule out (fixed-radius near neighbours,
Bentley 1992, used as an exact filter).  The filter is exact: write
el_i = d(x1,x2), el_j = d(x3,x4), and let tau be an ulp of 2 max(el).  If
the computed d13 = d(x1,x3) >= el_i + tau and d24 = d(x2,x4) >= el_j + tau,
``_gain``'s left-to-right ``(el_i + el_j) - d13 - d24`` is <= 0: the first
sum rounds up by at most tau, so the first subtraction stays <= el_j, and
the second is then <= -tau.  So every pair with gain > eps > 0 has x3 in the
ball of radius el_i + tau around x1 (which gives j) or x2 in the ball of
radius el_j + tau around x4 (which gives i + 1).  The radii are inflated by
a relative 2^-40 to cover the tree's own rounding; l1 is queried with p = 1,
and l2sq as an l2 ball of the square-root radius (``as_points`` keeps tau
finite).  The balls are queried as joins of KD-trees, all in C: the
centres fall into classes by the binary exponent of their radius, and
each class's tree is joined with the tree over the points out to its
class's power of two, which lies above every radius of the class; a
record counts when its distance is within its centre's own radius.  The
candidates' gains, from ``_gain``, are one block for ``_pick``, so the
pick and the random draw are the kernel's, bit for bit.  When the joins
count more than ``_PRUNE_SHARE`` of the pairs (a random tour, say) the
blocked kernel is faster and runs instead; the count overcounts the ball
points, which only sends more tours to the kernel, with the same pick.
The trees are ``scipy.spatial``'s, imported by the first ball query, not
by ``import twoptlab``, which loads no scipy module (HiGHS is imported the
same way).

``run_two_opt`` iterates pick+apply until no improving pair remains: it
has converged when every row summary is known and none holds a gain > eps
(on a tour within one kernel block, when a full scan finds none).  eps
must be finite and > 0: a change counts as improving when its gain is >
eps.  ``min_improvement``
computes the smallest positive gain over *all* ordered vertex quadruples,
which upper bounds the number of iterations by initial_length /
min_improvement.

The second half implements the linked-pair taxonomy for sequences of applied
2-changes (an edge added by one change and removed by another): pairs sharing
all four vertices (type 2), five vertices (type 1a/1b, split by whether the
second change also re-creates an edge the first removed), or six (type 0),
plus a counter for large sets of pairwise change-disjoint pairs of type 0/1.
The counter indexes the edges each change removes, pairs every change with
the changes that remove an edge it adds, keeps the pairs that
``classify_linked_pair`` types as 0, 1a or 1b, and matches them by one
lexicographic greedy pass, or exactly, as a 0/1 program solved by scipy's
HiGHS, which may return any maximum matching.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import IO, Sequence

import numpy as np

from .geometry import Metric, _gain, _pairwise, _per_axis, as_points, vec_dist

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


def _tour_order(tour, n: int | None = None) -> np.ndarray:
    """The order array of a Tour or vertex sequence, checked to hold integer
    vertex ids that are a permutation of 0..n-1 (n defaults to its length).

    The ids must have an integer dtype: floats, even integral ones, strings
    and booleans are rejected rather than converted.  An empty order is not
    a permutation of a nonempty range, whatever its dtype.
    """
    order = np.asarray(tour.order if isinstance(tour, Tour) else tour).ravel()
    if order.size and not np.issubdtype(order.dtype, np.integer):
        raise ValueError(f"tour order must hold integer vertex ids, not {order.dtype} values")
    n = order.size if n is None else n
    if order.size != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"tour order is not a permutation of 0..{n - 1}")
    return order.astype(np.int64, copy=False)


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
        arr = _tour_order(order)
        if arr.size < 3:
            raise ValueError("a tour needs at least three vertices")
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


# every accepted name of a start rule -> the rule it names
_INIT_RULES = {
    "random": "random",
    "nearest_neighbor": "nearest_neighbor",
    "nn": "nearest_neighbor",
    "greedy_insertion": "greedy_insertion",
    "greedy": "greedy_insertion",
}


def _rule_token(rule: str) -> str:
    try:
        return _INIT_RULES[rule]
    except KeyError:
        raise ValueError(f"unknown initial-tour rule {rule!r}") from None


def _check_pivot(pivot: str) -> None:
    if pivot not in PIVOTS:
        raise ValueError(f"unknown pivot rule {pivot!r}")


_EPS = 1e-12  # the default eps of every descent, scan and certificate


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
    nearest-neighbour walk reads coordinate rows against the unvisited
    points only; only greedy insertion builds a distance matrix, and frees
    it on return.
    """
    pts = _coords(inst_or_points)
    return Tour.from_order(_start_order(pts, metric, _rule_token(rule), seed))


def _start_order(pts: np.ndarray, metric, rule: str, seed) -> np.ndarray:
    """initial_tour's order, vertex 0 first, for checked points and a rule token."""
    n = pts.shape[0]
    if n < 3:
        raise ValueError("a tour needs at least three vertices")
    if rule == "random":
        order = np.random.default_rng(seed).permutation(n)
        shift = int(np.flatnonzero(order == 0)[0])
        return np.concatenate((order[shift:], order[:shift]))
    if rule == "nearest_neighbor":
        return np.array(_nn_walk(pts, metric)[0])
    # greedy_insertion: each remaining vertex keeps its cheapest insertion
    # cost and the position of the earliest tour edge that attains it.  An
    # insertion replaces one edge by two, so only the vertices whose best
    # edge was the replaced one are priced against the whole tour again.
    D = _pairwise(pts, metric)
    order = np.zeros(1, dtype=np.int64)
    rest = np.arange(1, n)
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
    return order


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


def _nn_walk(pts: np.ndarray, metric, tree: bool = False) -> tuple[list[int], list[float]]:
    """Visit every point from point 0, each step taking the live point of least
    key, ties to the smallest index: the visit order and the keys taken.

    The key of a live point is its distance to the point visited last (the
    nearest-neighbour walk) or, with ``tree``, to the nearest visited point
    (Prim's tree, whose weight is the sum of the keys in visit order).  Each
    step computes one coordinate row against the live points only.  They
    stay in index order, so the first least key is the smallest index; a
    point leaves with inf coordinates and key, which keep it from ever
    being least, and the arrays are compacted once more than an eighth of
    them are dead.  So a step costs O(live) and the walk O(n) memory.

    For d <= 2 the live points are one contiguous copy per axis; a row is
    their per-axis differences, one subtraction into a buffer made once,
    combined by ``geometry._per_axis``, and the whole walk runs under one
    ``np.errstate``: vec_dist's row, bit for bit, without its cost per
    call.  From d = 3 on each row is a ``vec_dist`` call, whose einsum adds
    in an order of its own.
    """
    metric = Metric.parse(metric)
    n, dim = pts.shape
    per_axis = dim <= 2
    # copies, never views: dead points are written over with inf.  The point
    # axis is ``ax``: (d, n) per axis, else the (n, d) layout vec_dist sums
    # in; ``at[k]`` is live point k either way, and ``diff`` the buffer
    # rows over the live points
    ax = 1 if per_axis else 0
    live = pts.T.copy() if per_axis else pts.copy()
    at, cols = live.swapaxes(0, ax), pts[:, :, None]
    buf = diff = np.empty((dim, n))
    ids = np.arange(n)
    key = np.full(n, np.inf)
    order, keys = [0], []
    at[0], ids[0], dead = np.inf, -1, 1
    with np.errstate(over="ignore"):  # as in vec_dist
        for _ in range(n - 1):
            if per_axis:
                row = _per_axis(metric, *np.subtract(cols[order[-1]], live, out=diff))
            else:
                row = vec_dist(pts[order[-1]], live, metric)
            key = np.minimum(key, row, out=key) if tree else row
            k = int(key.argmin())
            order.append(int(ids[k]))
            keys.append(float(key[k]))
            at[k], key[k], ids[k] = np.inf, np.inf, -1
            dead += 1
            # a compaction costs about one step; over Prim's walk at n = 3106
            # a step reads 1.07 entries per live point, against 1.33 at 1/2
            if 8 * dead > ids.size:
                keep = ids >= 0
                ids, key, dead = ids[keep], key[keep], 0
                live = live.compress(keep, axis=ax)
                at, diff = live.swapaxes(0, ax), buf[:, : ids.size]
    return order, keys


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
# A coordinate scan evaluates only its ball candidates while the radius
# classes' overcount of the ball points is at most this share of the
# n(n-3)/2 pairs.  A ball point costs about 120-190 ns (the class joins,
# from C) and a pair of the blocked kernel about 15-40 ns; on partly
# shuffled 2-opt tours at n = 400 and 1500 under the best pivot the two
# took equal time at an overcount share of about 0.15 and 0.12 (2-CPU
# host, thread time, medians of 3-5).
_PRUNE_SHARE = 1 / 16


def _blocks(m: int, budget: int):
    """Row ranges [i0, i1) covering rows 0..m-3, about ``budget`` gains each.

    Row i pairs with the columns i+2..m-1, so a block of rows [i0, i1) spans
    the columns i0+2..m-1.  The budget doubles after each block up to
    _SCAN_BLOCK.  A block never has more rows than columns, so rows**2 <=
    budget.
    """
    i0 = 0
    while i0 < m - 2:
        cols = m - i0 - 2
        i1 = i0 + max(1, min(cols, budget // cols))
        yield i0, i1
        i0, budget = i1, min(2 * budget, _SCAN_BLOCK)


def _pick(pivot: str, eps: float, blocks, gains, pair, rngs) -> list:
    """Per tour, the pair (i, j, gain) its pivot rule picks among gains > eps, or None.

    ``gains(b, ts)`` computes the gains of block b for the tours ts (an
    index array or a slice), tour axis first, and ``pair(b, k)``
    gives the pair (i, j) at the block's flat index k; blocks and their flat
    indices run in lexicographic pair order.  ``rngs`` has one entry per
    tour, its generator for the random pivot.  ``first`` stops scanning a
    tour at its first hit.  ``random`` counts each tour's improving pairs,
    draws one and computes the block that holds it again.
    """
    tours = len(rngs)
    picks: list = [None] * tours
    if pivot != "random":
        todo, sel = list(range(tours)), slice(None)
        for b in blocks:
            g = gains(b, sel).reshape(len(todo), -1)
            k = (g > eps if pivot == "first" else g).argmax(axis=1).tolist()
            for r, (t, kt) in enumerate(zip(todo, k)):
                gt = float(g[r, kt])
                if gt > eps and (picks[t] is None or gt > picks[t][2]):
                    picks[t] = (*pair(b, kt), gt)
            if pivot == "first" and any(picks[t] is not None for t in todo):
                todo = [t for t in todo if picks[t] is None]
                if not todo:
                    break
                sel = np.array(todo)
        return picks
    blocks = list(blocks)
    counts = [[np.count_nonzero(h) for h in gains(b, slice(None)).reshape(tours, -1) > eps]
              for b in blocks]
    for t, rng in enumerate(rngs):
        total = sum(c[t] for c in counts)
        if total == 0:
            continue
        r = int(rng.integers(total))
        for b, c in zip(blocks, counts):
            if r < c[t]:
                g = gains(b, slice(t, t + 1)).reshape(-1)
                k = int(np.flatnonzero(g > eps)[r])
                picks[t] = (*pair(b, k), float(g[k]))
                break
            r -= c[t]
        else:
            raise AssertionError("unreachable: improving-pair index out of range")
    return picks


def _scan(pivot: str, eps: float, el: np.ndarray, dists,
          closed: bool = True, rngs=(None,)):
    """Per tour, the pair (i, j, gain) the pivot rule picks among gains > eps, or None.

    Edge k of tour t, from position k to k+1, has length el[t, k]; the pair
    (i, j), i+2 <= j < m = el.shape[1], has gain _gain(el[t, i], el[t, j],
    d13, d24), d13 = d(i, j) and d24 = d(i+1, j+1) between positions.  The
    block ``dists(i0, i1, c0, ts)`` of the tours ts holds the distances
    between positions i0..i1 and c0..m (a block without the tour axis serves
    every tour).  On a closed tour the pair (0, last) is left out.  _pick
    reduces the row blocks of _blocks, with one generator per tour in rngs.
    """
    m = el.shape[1]

    def pair(block, k):
        r, c = divmod(k, m - block[0] - 2)
        return block[0] + r, block[0] + 2 + c

    budget = _SCAN_FIRST if pivot == "first" else _SCAN_BLOCK
    return _pick(pivot, eps, _blocks(m, budget),
                 lambda block, ts: _gains(el, dists, *block, ts, closed), pair, rngs)


def _gains(el: np.ndarray, dists, i0: int, i1: int, ts, closed: bool = True) -> np.ndarray:
    """_scan's kernel block of rows i0..i1-1 (columns i0+2..) for the tours ts,
    tour axis first, with -inf where a row has no pair."""
    c0 = i0 + 2
    e = el[ts]
    g = _block_gains(e[:, i0:i1, None], e[:, None, c0:], dists(i0, i1, c0, ts))
    rows = i1 - i0
    np.copyto(g[:, :, :rows], -np.inf, where=_BELOW[:rows, :rows])
    if closed and i0 == 0:
        g[:, 0, -1] = -np.inf
    return g


def _block_gains(el_rows, el_cols, E: np.ndarray) -> np.ndarray:
    """The gains of a block of pairs: d13 = E[..., r, c] and d24 = E[..., r+1, c+1]."""
    return _gain(el_rows, el_cols, E[..., :-1, :-1], E[..., 1:, 1:])


def _coord_dists(q: np.ndarray, metric):
    """Kernel blocks from the closed point list q, q[n] = q[0]: one vec_dist call each."""
    return lambda i0, i1, c0, ts: vec_dist(q[i0 : i1 + 1, None], q[None, c0:], metric)


def _ball_keys(p: np.ndarray, pn: np.ndarray, el: np.ndarray, metric) -> np.ndarray | None:
    """Sorted keys i*n + j of the pairs a ball query cannot rule out, or None if too many.

    Edge k runs from p[k] to pn[k] and has length el[k].  A pair (i, j) is a
    candidate when p[j] lies in the ball of radius el[i] + tau around p[i],
    or p[i+1] in the ball of radius el[j] + tau around p[j+1] (see the module
    docstring).  The 2n centres, p then pn, fall into classes by the binary
    exponent of their radius, so every radius of a class lies below its
    power of two rho.  Each class is one tree, joined against one tree over
    p out to rho: ``count_neighbors`` first, whose sum overcounts the ball
    points (above _PRUNE_SHARE of the n(n-3)/2 pairs, None), then
    ``sparse_distance_matrix``, whose records keep the points within their
    centre's own radius.  The pairs j < i + 2 and the closed tour's
    (0, n-1) are dropped.
    """
    from scipy.spatial import cKDTree

    n = el.size
    m = Metric.parse(metric)
    tau = np.spacing(2 * el.max())
    r = (el + tau) * (1 + 2.0**-40)
    if m is Metric.SQ_EUCLIDEAN:
        r = np.sqrt(r)
    minkowski = 1 if m is Metric.MANHATTAN else 2
    tree = cKDTree(p)
    centres, radii = np.concatenate((p, pn)), np.concatenate((r, r))
    exps = np.frexp(radii)[1]
    classes = []
    for e in np.unique(exps):
        ids = np.flatnonzero(exps == e)
        classes.append((ids, cKDTree(centres[ids]), math.ldexp(1.0, int(e))))
    total = sum(int(ct.count_neighbors(tree, rho, p=minkowski)) for _, ct, rho in classes)
    if total > _PRUNE_SHARE * (n * (n - 3) // 2):
        return None
    centre, k = [], []
    for ids, ct, rho in classes:
        rec = ct.sparse_distance_matrix(tree, rho, p=minkowski, output_type="ndarray")
        c = ids[rec["i"]]
        inside = rec["v"] <= radii[c]
        centre.append(c[inside])
        k.append(rec["j"][inside])
    centre, k = np.concatenate(centre), np.concatenate(k)
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
    gains, in key (lexicographic) order, are one block for _pick, so the
    pick and the random draw are _scan's.
    """
    q = np.concatenate((p, p[:1]))
    el = vec_dist(q[:-1], q[1:], metric)
    keys = _ball_keys(q[:-1], q[1:], el, metric)
    if keys is None:
        return _scan(pivot, eps, el[None], _coord_dists(q, metric), rngs=(rng,))[0]
    if keys.size == 0:
        return None
    i, j = np.divmod(keys, el.size)
    g = _gain(el[i], el[j], vec_dist(q[i], q[j], metric), vec_dist(q[i + 1], q[j + 1], metric))
    return _pick(pivot, eps, (g[None],), lambda b, ts: b[ts],
                 lambda b, k: (int(i[k]), int(j[k])), (rng,))[0]


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


def _reverse_segment(order: np.ndarray, i: int, j: int,
                     P: np.ndarray | None = None) -> tuple[int, int]:
    """Reverse positions i+1..j (inclusive) in place; return the positions of the added edges.

    The shorter side is reversed, ties inner.  The inner side leaves the
    added edges at i and j.  The outer side is reversed as three flips --
    positions i+1..j, then 0..i, then i+1..n-1 -- which turn A + B + C
    (B = positions i+1..j) into rev(A) + rev(C) + B, an order that starts at
    the old order[i]; the added edges then sit at n-1-(j-i) and at the wrap
    position n-1.  ``P``, the (n+1) x (n+1) position matrix of ``order``, is
    kept in step; its wrap row and column n are copies of row and column 0.
    """
    n = order.size
    flips, added = [(i + 1, j + 1)], (i, j)
    if 2 * (j - i) > n:
        flips += [(0, i + 1), (i + 1, n)]
        added = (n - 1 - (j - i), n - 1)
    for lo, hi in flips:
        order[lo:hi] = order[lo:hi][::-1]
        if P is not None:
            _flip(P, lo, hi)
    if P is not None:
        P[n] = P[0]
        P[:, n] = P[:, 0]
    return added


def _reversals(n: int, i: np.ndarray, j: np.ndarray):
    """_reverse_segment for a batch of tours as gathers: (perm, added).

    Tour t's new order is order[perm[t]], and added[t] holds the positions
    of its added edges, as _reverse_segment gives them.  The inner side
    reverses positions i+1..j; the outer side's rev(A) + rev(C) + B is the
    inner side's order read backwards from position i.
    """
    i, j = i[:, None], j[:, None]
    outer = 2 * (j - i) > n
    p = np.arange(n)
    q = np.where(outer, (i - p) % n, p)
    perm = np.where((q > i) & (q <= j), i + 1 + j - q, q)
    return perm, np.hstack((i, j)) + np.where(outer, n - 1 - j, 0)


def _coord_scan(inst_or_points, tour, metric, pivot: str, eps: float, rng=None):
    """The pick (i, j, change) of one coordinate scan of the tour, or None.

    Checks eps, the points and the tour, then runs _scan_points over the
    tour-ordered points (the ball filter of the module docstring).
    """
    _check_stopping(eps)
    pts = _coords(inst_or_points)
    order = _tour_order(tour, pts.shape[0])
    hit = _scan_points(pts[order], metric, pivot, eps, rng)
    return None if hit is None else (hit[0], hit[1], _make_change(order, *hit))


def find_improving(
    tour: Tour,
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    pivot: str = "first",
    eps: float = _EPS,
    seed: int | np.random.Generator | None = None,
) -> TwoChange | None:
    """Search the tour for an improving 2-change under the pivot rule.

    One scan from coordinates (no n x n matrix), pruned by the exact ball
    filter of the module docstring; the pick, and the draw of a random
    pivot, are those of the full scan, bit for bit.
    """
    _check_pivot(pivot)
    found = _coord_scan(inst_or_points, tour, metric, pivot, eps, np.random.default_rng(seed))
    return None if found is None else found[2]


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
    produced = {frozenset(e) for e in _make_change(order, i, j, change.gain).added}
    if produced != {frozenset(e) for e in change.added}:
        raise ValueError(
            f"added edges {change.added} do not reconnect the removed pair into a tour"
        )
    new_order = order.copy()
    _reverse_segment(new_order, i, j)
    cached = None
    if tour.cached_length is not None:
        cached = tour.cached_length - change.gain
    return Tour.from_order(new_order, cached_length=cached, metric=tour.metric)


def _matrix_dists(P: np.ndarray):
    """Kernel blocks from a stack of (n+1) x (n+1) position matrices: one slice of P each."""
    return lambda i0, i1, c0, ts: P[ts, i0 : i1 + 1, c0:]


class _RowSummaries:
    """One tour's kernel rows, summarized per row across the steps of its descent.

    P holds the tour's position matrix, with a leading tour axis of one.
    Row i of the kernel (see _scan) has one summary, summary[i], whose
    meaning the pivot fixes: under best the row's largest gain, exact while
    > eps; under first and random the number of its pairs with gain > eps.
    A row whose summary is not known is invalid.  ``pick`` refreshes the
    invalid rows it needs with the kernel and picks what _scan would pick,
    bit for bit.  ``reverse`` applies a change and invalidates or adjusts
    only the rows whose gains it can move.
    """

    def __init__(self, P: np.ndarray, pivot: str, eps: float):
        self.P, self.pivot, self.eps = P, pivot, eps
        self.el = P.diagonal(1, axis1=1, axis2=2)
        self.dists = _matrix_dists(P)
        self.summary = np.zeros(self.el.shape[1] - 2, dtype=float if pivot == "best" else np.int64)
        self.valid = np.zeros(self.summary.size, dtype=bool)

    def _holds(self, s):
        """Whether summaries, or a count total, improve: > eps under best, > 0 otherwise."""
        return s > (self.eps if self.pivot == "best" else 0)

    def _reduce(self, g: np.ndarray, axis: int) -> np.ndarray:
        """The summaries of a block of gains, one per row along the other axis."""
        best = self.pivot == "best"
        return g.max(axis=axis) if best else np.count_nonzero(g > self.eps, axis=axis)

    def _refresh(self, i0: int, i1: int) -> None:
        self.summary[i0:i1] = self._reduce(_gains(self.el, self.dists, i0, i1, slice(None))[0], 1)
        self.valid[i0:i1] = True

    def _columns(self, r0: int, lo: int, hi: int) -> np.ndarray:
        """The summaries of rows r0..lo-1 over the columns lo..hi-1 alone.

        The block is read transposed, one column of gains per row, so that it
        reduces over its short axis.  P is symmetric and _gain's first sum
        commutes, so every gain keeps the kernel's bits.
        """
        n, w = self.el.shape[1], hi - lo
        e, P = self.el[0], self.P[0]
        out = np.empty(lo - r0, dtype=self.summary.dtype)
        step = max(1, _SCAN_BLOCK // w)
        for a in range(r0, lo, step):
            b = min(a + step, lo)
            g = _block_gains(e[lo:hi, None], e[a:b], P[lo : hi + 1, a : b + 1])
            if b == lo:
                g[0, -1] = -np.inf  # (lo-1, lo) is adjacent
            if a == 0 and hi == n:
                g[-1, 0] = -np.inf  # so is the closed tour's (0, n-1)
            out[a - r0 : b - r0] = self._reduce(g, 0)
        return out

    def pick(self, rng) -> tuple[int, int, float] | None:
        """The pair (i, j, gain) _scan picks on the tour now, or None."""
        s, valid, eps = self.summary, self.valid, self.eps
        rows, first = s.size, self.pivot == "first"
        # first refreshes in order up to its first improving row, in doubling
        # blocks as _scan's first pass does; best and random refresh every row
        budget = _SCAN_FIRST if first else _SCAN_BLOCK
        k = 0
        while k < rows:
            todo = ~valid[k:]
            if first:
                todo |= self._holds(s[k:])
            at = int(todo.argmax())
            if not todo[at]:
                k = rows
                break
            k += at
            if valid[k]:
                break
            cols = rows - k
            k1 = k + max(1, min(cols, budget // cols))
            k1 = k + (int(valid[k:k1].argmax()) or k1 - k)  # stop at the next valid row
            self._refresh(k, k1)
            budget = min(2 * budget, _SCAN_BLOCK)
        if first:
            if k == rows:
                return None
            i = k
        elif self.pivot == "best":
            i = int(s.argmax())
            if not self._holds(s[i]):
                return None
        else:
            cum = np.cumsum(s)
            if not self._holds(cum[-1]):
                return None
            r = int(rng.integers(cum[-1]))
            i = int(np.searchsorted(cum, r, side="right"))
            r -= int(cum[i] - s[i])
        g = _gains(self.el, self.dists, i, i + 1, slice(None))[0, 0]
        if first:
            c = int((g > eps).argmax())
        elif self.pivot == "best":
            c = int(g.argmax())
        else:
            c = int(np.flatnonzero(g > eps)[r])
        return i, i + 2 + c, float(g[c])

    def reverse(self, order: np.ndarray, i: int, j: int) -> tuple[int, int]:
        """_reverse_segment of the tour and its matrix, with the summaries kept in step.

        An inner reversal of positions i+1..j moves the edges lo..hi-1, lo = i,
        hi = j+1: it invalidates rows lo..hi-1 and, in the rows below lo,
        changes the columns lo..hi-1 only, while every other gain keeps its
        bits (its entries of P did not move).  A row below lo takes in its
        new columns: it adds their count, or under best keeps the larger
        gain.  One with improving pairs first gives up its old columns, taken
        before the flip: it subtracts their count, or under best it is
        invalidated when its largest gain sat there and the new columns do
        not match it.  Under first no row below the picked one improves.
        The outer side and a change touching more than half the pairs
        invalidate every row instead, which measured faster there.
        """
        n = order.size
        lo, hi = i, j + 1
        w = hi - lo
        s, valid = self.summary, self.valid
        if 2 * (j - i) > n or 2 * w * (2 * n - w - 3) > n * (n - 3):
            valid[:] = False
            return _reverse_segment(order, i, j, self.P[0])
        valid[lo:hi] = False
        if lo == 0:
            return _reverse_segment(order, i, j, self.P[0])
        hit = self._holds(s[:lo])
        r0 = int(hit.argmax())
        keep = bool(hit[r0])
        if keep:
            old = self._columns(r0, lo, hi)
        added = _reverse_segment(order, i, j, self.P[0])
        new = self._columns(0, lo, hi)
        if self.pivot == "best":
            if keep:
                t = s[r0:lo]
                valid[r0:lo] &= ~(hit[r0:] & (old == t) & (new[r0:] < t))
            np.maximum(s[:lo], new, out=s[:lo])
        else:
            if keep:
                s[r0:lo] -= old
            s[:lo] += new
        return added


def _descend(pts: np.ndarray, metric, orders: np.ndarray, pivot: str, eps: float, rngs,
             max_iter: int | None = None, keep_changes: bool = False) -> list[dict]:
    """2-opt to local optimality on a batch of tours through the points pts, in lockstep.

    Tour t has the order orders[t], the generator rngs[t] for random-pivot
    draws and its position matrix P[t], computed here with the others from
    the tour-ordered points.  Each step picks a pair on every live tour,
    retires those with no pair of gain > eps (converged) or with max_iter
    changes applied, and applies its picked change to each of the others.
    A larger batch scans every pair with _scan and moves every tour's order
    and matrix with one gather, which also drops the retired tours.  A batch
    of one reverses its order and matrix in place and scans with the same
    _scan call within one kernel block, with _RowSummaries above it.
    Returns, per tour, the RunRecord fields its descent sets, by name.
    Raises ValueError when a change would undo the one before it, which
    only rounding can make look improving at this eps.
    """
    tours, n = orders.shape
    P = _pairwise(pts[np.hstack((orders, orders[:, :1]))], metric)
    runs: list = [None] * tours
    initial = [float(P[t].diagonal(1).sum()) for t in range(tours)]
    iterations, min_gain = [0] * tours, [None] * tours
    changes: list[list[TwoChange]] = [[] for _ in range(tours)]
    undo: list = [None] * tours  # the positions of the edges each tour's last change added
    live = list(range(tours))
    el = P.diagonal(1, axis1=1, axis2=2)
    # one tour within one kernel block is scanned whole at every step: there
    # the row summaries' extra numpy calls cost more than they save (on a
    # 2-CPU machine, 1.1-1.8x the full scan's run time at n <= 50 for every
    # pivot and start; the random pivot gains from n = 100, the first from
    # about n = 150-200, and the best pivot from a random start still loses
    # 27 % at n = 250)
    summary = _RowSummaries(P, pivot, eps) if tours == 1 and n * (n - 3) // 2 > _SCAN_BLOCK else None
    while live:
        if summary is not None:
            hits = [summary.pick(rngs[0])]
        else:
            hits = _scan(pivot, eps, el, _matrix_dists(P), rngs=[rngs[t] for t in live])
        moves = []
        for row, (t, hit) in enumerate(zip(live, hits)):
            if hit is None or (max_iter is not None and iterations[t] >= max_iter):
                # the flips leave the order rotated; the record starts at vertex 0
                rot = (np.arange(n) + int(np.flatnonzero(orders[row] == 0)[0])) % n
                runs[t] = dict(initial_length=initial[t], final_length=float(el[row, rot].sum()),
                               iterations=iterations[t], min_gain_observed=min_gain[t],
                               converged=hit is None, final_order=orders[row, rot].tolist(),
                               changes=changes[t])
                continue
            i, j, gain = hit
            # removing both edges the last change added can only undo it, so both
            # gains are rounding residues; the run would flip between two tours
            if (i, j) == undo[t]:
                raise ValueError(
                    f"2-change {_make_change(orders[row], i, j, gain).removed} undoes the "
                    f"previous change: gains are at rounding level for eps={eps} (gain "
                    f"{gain:.3g}); raise eps or scale the coordinates down"
                )
            if keep_changes:
                changes[t].append(_make_change(orders[row], i, j, gain))
            iterations[t] += 1
            min_gain[t] = gain if min_gain[t] is None else min(min_gain[t], gain)
            moves.append((row, i, j))
        live = [live[row] for row, _, _ in moves]
        if tours == 1 and live:
            _, i, j = moves[0]
            undo[0] = (_reverse_segment(orders[0], i, j, P[0]) if summary is None
                       else summary.reverse(orders[0], i, j))
        elif live:
            rows, i, j = (np.array(v) for v in zip(*moves))
            perm, added = _reversals(n, i, j)
            # new P[t, a, b] = P[rows[t], ext[t, a], ext[t, b]], as one flat gather
            ext, m = np.hstack((perm, perm[:, :1])), n + 1
            P = P.reshape(-1)[(rows[:, None, None] * m + ext[:, :, None]) * m + ext[:, None, :]]
            orders = orders[rows[:, None], perm]
            el = P.diagonal(1, axis1=1, axis2=2)
            for t, positions in zip(live, added.tolist()):
                undo[t] = tuple(positions)
    return runs


def run_two_opt(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    init: str = "random",
    pivot: str = "first",
    eps: float = _EPS,
    seed: int = 0,
    max_iter: int | None = None,
    keep_changes: bool = True,
) -> RunRecord:
    """Run 2-opt to local optimality.

    One RNG (seeded with ``seed``) drives both the random initial tour and
    the random pivot, so a record is reproducible from its parameters.  The
    run ends converged (converged=True) when every row summary of the tour
    is known and none holds a gain > eps, so no pair improves, or when
    max_iter changes have been applied (converged=False).  It raises
    ValueError when a change would undo the one before it, which only
    rounding can make look improving at this eps.  The run is the engine's
    runner over one seed: a batch of one tour of the descent.
    """
    return _runs(inst_or_points, metric, init, pivot, eps, [seed], max_iter, keep_changes)[0]


def _runs(inst_or_points, metric, init: str, pivot: str, eps: float, seeds,
          max_iter: int | None = None, keep_changes: bool = False) -> list[RunRecord]:
    """run_two_opt's record for each seed, the runs in lockstep batches of the descent.

    A batch holds max(1, _SCAN_BLOCK // (n+1)^2) tours (one from n = 128
    on), so its position matrices take about _SCAN_BLOCK elements.  The
    runner draws each seed's start and hands the batch's start orders and
    the points to _descend.
    """
    _check_pivot(pivot)
    rule = _rule_token(init)
    _check_stopping(eps, max_iter)
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    size = max(1, _SCAN_BLOCK // (n + 1) ** 2)
    records = []
    for lo in range(0, len(seeds), size):
        batch = seeds[lo : lo + size]
        rngs = [np.random.default_rng(s) for s in batch]
        orders = np.array([_start_order(pts, metric, rule, rng) for rng in rngs])
        runs = _descend(pts, metric, orders, pivot, eps, rngs, max_iter, keep_changes)
        records += [RunRecord(seed=int(s), metric=Metric.parse(metric).value, pivot=pivot,
                              init=rule, n=n, eps=eps, **run) for s, run in zip(batch, runs)]
    return records


def certify_two_optimality(
    inst_or_points,
    tour: Tour | Sequence[int],
    metric: Metric | str = Metric.EUCLIDEAN,
    eps: float = _EPS,
) -> Violation | None:
    """Full scan for the maximum-gain improving pair; None if 2-optimal.

    Works directly from coordinates (no n x n matrix), so it stays cheap and
    bit-accurate on large, nearly-degenerate instances.  On a tour with few
    long edges, such as a designated 2-optimal one, the exact ball filter of
    the module docstring evaluates O(n log n + candidates) instead of O(n^2)
    gains, and the verdict equals the full scan's bit for bit.
    """
    found = _coord_scan(inst_or_points, tour, metric, "best", eps)
    if found is None:
        return None
    i, j, change = found
    return Violation(i=i, j=j, removed=change.removed, added=change.added, gain=change.gain)


def min_improvement(
    inst_or_points,
    metric: Metric | str = Metric.EUCLIDEAN,
    eps: float = _EPS,
) -> float | None:
    """Smallest gain above eps over all ordered vertex quadruples.

    Every 2-change any run could ever perform has gain of the form
    d(a,b) + d(c,d) - d(a,c) - d(b,d) for distinct a,b,c,d, so this value
    divides the total descent: iterations <= initial_length / min_improvement.
    Returns None when no quadruple improves.  O(n^4) work, priced per vertex
    a over blocks of b values of at most about _SCAN_BLOCK gains, so memory
    is O(n^2 + _SCAN_BLOCK).
    """
    _check_stopping(eps)
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    if n < 4:
        raise ValueError(f"min_improvement needs n >= 4, got {n}")
    D = _pairwise(pts, metric)
    best = math.inf
    idx = np.arange(n)
    step = max(1, _SCAN_BLOCK // (n * n))
    for a in range(n):
        others = idx[idx != a]
        for lo in range(0, n - 1, step):
            bs = others[lo : lo + step]
            rows = np.arange(bs.size)
            # g[r, c, d]: the gain of d(a,b) + d(c,d) - d(a,c) - d(b,d), b = bs[r]
            g = _gain(D[a, bs][:, None, None], D, D[a][:, None], D[bs][:, None, :])
            g[:, a, :] = -np.inf
            g[rows, bs, :] = -np.inf
            g[:, :, a] = -np.inf
            g[rows, :, bs] = -np.inf
            g[:, idx, idx] = -np.inf
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


def _max_matching(t: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A largest set of the pairs over changes 0..t-1 with each change in at
    most one, sorted: the 0/1 program that maximizes the number of chosen
    pairs, solved to optimality by HiGHS (``scipy.optimize.milp``)."""
    if not pairs:
        return []
    from scipy.optimize import milp
    from scipy.sparse import csr_array

    k = len(pairs)  # member[c, p] = 1 when change c is in pair p
    member = csr_array((np.ones(2 * k), (np.ravel(pairs), np.repeat(np.arange(k), 2))), (t, k))
    res = milp(-np.ones(k), integrality=1, bounds=(0, 1), constraints=(member, 0, 1),
               options={"mip_rel_gap": 0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS found no optimal matching: {res.message}")
    return sorted(pairs[c] for c in np.flatnonzero(res.x > 0.5))


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
    maximum-cardinality matching is computed instead, by HiGHS.  method="greedy"
    or "exact" forces one strategy.

    Returns (count, selected pairs).  Every maximum matching has the same
    size, so an exact count is unique, but its pairs may be any maximum
    matching.
    """
    if method not in ("auto", "greedy", "exact"):
        raise ValueError(f"unknown method {method!r}")
    t = len(changes)
    removed_by: dict[frozenset, list[int]] = {}
    for j, ch in enumerate(changes):
        for e in ch.removed:
            removed_by.setdefault(frozenset(e), []).append(j)
    candidates: set[tuple[int, int]] = set()  # a change that adds an edge, one that removes it
    for i, ch in enumerate(changes):
        for e in ch.added:
            for j in removed_by.get(frozenset(e), ()):
                if j != i:
                    candidates.add((min(i, j), max(i, j)))
    linked = [(i, j) for i, j in sorted(candidates)
              if classify_linked_pair(changes[i], changes[j])
              in (LinkedPairType.TYPE_0, LinkedPairType.TYPE_1A, LinkedPairType.TYPE_1B)]
    picked: list[tuple[int, int]] = []
    if method != "exact":  # the lexicographic greedy matching
        used: set[int] = set()
        for i, j in linked:
            if i not in used and j not in used:
                picked.append((i, j))
                used.update((i, j))
    if method == "exact" or (method == "auto" and n is not None
                             and len(picked) < linked_pair_bound(t, n) and t <= exhaustive_limit):
        picked = _max_matching(t, linked)
    return len(picked), picked
