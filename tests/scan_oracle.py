"""Reference 2-opt scan loops and MST, kept for tests only.

One hand-written loop per caller: the engine's three pivot rules, the
certifier and the layered path 2-opt, each computing the 2-change gain on
its own.  The package replaced them with one shared kernel; test_scan_kernel
checks that the kernel gives the same (i, j, gain) sequences, the same
certifier verdicts and the same tours as these loops.  ``_reverse_segment``
is the engine's old segment reversal (a roll on the outer side), which the
package replaced with in-place flips of the order and its position matrix;
the reference run applies it, so the runs must also agree on every order.
``_nn_path`` is the
layered module's own nearest-neighbour path through the padding cluster,
which the package replaced with the engine's walk over coordinate rows; the
walk must visit the same points in the same order.  ``mst_length`` is the
dense Prim over a full distance matrix that the package replaced with Prim
over coordinate rows; the test requires the same weight, bit for bit.
``greedy_insertion`` is the start rule's old loop, which prices every
remaining vertex against every tour edge at each step; the package keeps a
cheapest insertion per vertex instead, and must build the same order.
"""

import numpy as np

from twoptlab.geometry import Metric, pairwise_distances, vec_dist
from twoptlab.tour import Tour, _coords, _make_change, initial_tour

# Scans work on (D, order) with edge i = (order[i], order[(i+1) % n]).
# Candidate pairs: j in [i+2, n-1], minus (0, n-1); i runs to n-3.


def _scan_first(D: np.ndarray, order: np.ndarray, eps: float):
    n = order.size
    nxt = np.roll(order, -1)
    el = D[order, nxt]
    for i in range(n - 2):
        hi = n if i > 0 else n - 1
        if hi <= i + 2:
            continue
        js = np.arange(i + 2, hi)
        gains = el[i] + el[js] - D[order[i], order[js]] - D[nxt[i], nxt[js]]
        good = np.flatnonzero(gains > eps)
        if good.size:
            k = int(good[0])
            return i, int(js[k]), float(gains[k])
    return None


def _scan_best(D: np.ndarray, order: np.ndarray, eps: float):
    n = order.size
    nxt = np.roll(order, -1)
    el = D[order, nxt]
    best = None
    for i in range(n - 2):
        hi = n if i > 0 else n - 1
        if hi <= i + 2:
            continue
        js = np.arange(i + 2, hi)
        gains = el[i] + el[js] - D[order[i], order[js]] - D[nxt[i], nxt[js]]
        k = int(np.argmax(gains))
        g = float(gains[k])
        if g > eps and (best is None or g > best[2]):
            best = (i, int(js[k]), g)
    return best


def _scan_random(D: np.ndarray, order: np.ndarray, eps: float, rng: np.random.Generator):
    n = order.size
    nxt = np.roll(order, -1)
    el = D[order, nxt]

    def row_gains(i):
        hi = n if i > 0 else n - 1
        if hi <= i + 2:
            return None, None
        js = np.arange(i + 2, hi)
        return js, el[i] + el[js] - D[order[i], order[js]] - D[nxt[i], nxt[js]]

    counts = np.zeros(n - 2, dtype=np.int64) if n > 2 else np.zeros(0, dtype=np.int64)
    for i in range(n - 2):
        js, gains = row_gains(i)
        if js is not None:
            counts[i] = int(np.count_nonzero(gains > eps))
    total = int(counts.sum())
    if total == 0:
        return None
    r = int(rng.integers(total))
    for i in range(n - 2):
        if r >= counts[i]:
            r -= int(counts[i])
            continue
        js, gains = row_gains(i)
        good = np.flatnonzero(gains > eps)
        k = int(good[r])
        return i, int(js[k]), float(gains[k])
    raise AssertionError("unreachable: improving-pair index out of range")


def _reverse_segment(order: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reverse positions i+1..j (inclusive); picks the shorter side, ties inner."""
    n = order.size
    inner = j - i
    if inner <= n - inner:
        order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
        return order
    rolled = np.roll(order, -(j + 1) % n)
    k = n - inner
    rolled[:k] = rolled[:k][::-1]
    return rolled


def scan(D, order, pivot, eps, rng=None):
    """The reference scan for one pivot rule."""
    if pivot == "random":
        return _scan_random(D, order, eps, rng)
    return {"first": _scan_first, "best": _scan_best}[pivot](D, order, eps)


def run_two_opt(pts, metric, init, pivot, eps, seed):
    """The scan-and-apply loop of run_two_opt over the reference scans.

    Returns (changes, final canonical order).
    """
    rng = np.random.default_rng(seed)
    start = initial_tour(pts, metric, init, rng)
    D = pairwise_distances(pts, metric)
    order = start.order.copy()
    changes = []
    while True:
        hit = scan(D, order, pivot, eps, rng)
        if hit is None:
            break
        changes.append(_make_change(order, *hit))
        order = _reverse_segment(order, *hit[:2])
    return changes, Tour.from_order(order).order


def certify_scan(pts, order, metric, eps):
    """The certifier's loop: the maximum-gain pair (gain, i, j), or None."""
    n = order.size
    p = pts[order]
    pn = np.roll(p, -1, axis=0)
    el = vec_dist(p, pn, metric)
    worst = None
    for i in range(n - 2):
        hi = n if i > 0 else n - 1
        if hi <= i + 2:
            continue
        gains = (
            el[i]
            + el[i + 2 : hi]
            - vec_dist(p[i], p[i + 2 : hi], metric)
            - vec_dist(pn[i], pn[i + 2 : hi], metric)
        )
        k = int(np.argmax(gains))
        g = float(gains[k])
        if g > eps and (worst is None or g > worst[0]):
            worst = (g, i, i + 2 + k)
    return worst


def _nn_path(pts: np.ndarray, start: int, cluster: np.ndarray, end: int) -> list[int]:
    """Nearest-neighbor path from ``start`` through all of ``cluster`` to ``end``."""
    remaining = list(cluster)
    path: list[int] = []
    cur = start
    while remaining:
        d = vec_dist(pts[cur], pts[remaining], Metric.EUCLIDEAN)
        k = int(np.argmin(d))
        cur = remaining.pop(k)
        path.append(cur)
    return path


def _path_two_opt(pts: np.ndarray, path: list[int], eps: float) -> list[int]:
    """First-improvement 2-opt on an open path; the two end points stay fixed.

    ``path`` includes both anchors; reversals act on interior positions only,
    but cuts at the anchor edges are considered.
    """
    ids = np.asarray(path, dtype=np.int64)
    m = ids.size
    while True:
        p = pts[ids]
        el = vec_dist(p[:-1], p[1:], Metric.EUCLIDEAN)
        applied = False
        a = 1
        while a < m - 2:
            bs = np.arange(a + 1, m - 1)
            gains = (
                el[a - 1]
                + el[bs]
                - vec_dist(p[a - 1], p[bs], Metric.EUCLIDEAN)
                - vec_dist(p[a], p[bs + 1], Metric.EUCLIDEAN)
            )
            good = np.flatnonzero(gains > eps)
            if good.size:
                b = int(bs[good[0]])
                ids[a : b + 1] = ids[a : b + 1][::-1]
                p = pts[ids]
                el = vec_dist(p[:-1], p[1:], Metric.EUCLIDEAN)
                applied = True
                continue  # rescan this row: the reversal may enable another cut
            a += 1
        # a full pass with no application certifies path-local optimality
        if not applied:
            return [int(v) for v in ids]


def mst_length(inst_or_points, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """Minimum-spanning-tree weight by dense Prim."""
    pts = _coords(inst_or_points)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("mst_length needs at least one point")
    if n == 1:
        return 0.0
    D = pairwise_distances(pts, metric)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = D[0].copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        v = int(np.argmin(best))
        total += float(best[v])
        in_tree[v] = True
        best = np.minimum(best, D[v])
        best[in_tree] = np.inf
    return total


def greedy_insertion(pts: np.ndarray, metric) -> list[int]:
    """Cheapest insertion from vertex 0; ties to the smallest vertex, then the earliest edge."""
    n = pts.shape[0]
    D = pairwise_distances(pts, metric)
    order = [0]
    rest = np.arange(1, n)
    if rest.size:
        v = int(rest[np.argmin(D[0, rest])])
        order.append(v)
        rest = rest[rest != v]
    while rest.size:
        a = np.asarray(order)
        b = np.roll(a, -1)
        cost = D[a][:, rest] + D[b][:, rest] - D[a, b][:, None]
        per_vertex = cost.min(axis=0)
        k = int(np.argmin(per_vertex))
        e = int(np.argmin(cost[:, k]))
        order.insert(e + 1, int(rest[k]))
        rest = np.delete(rest, k)
    return order
