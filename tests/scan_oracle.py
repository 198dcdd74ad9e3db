"""Reference 2-opt scan loops and MST, kept for tests only.

One hand-written loop per caller: the engine's three pivot rules, the
certifier and the layered path 2-opt, each computing the 2-change gain on
its own.  The package replaced them with one shared kernel; test_scan_kernel
checks that the kernel gives the same (i, j, gain) sequences, the same
certifier verdicts and the same tours as these loops.  ``_reverse_segment``
is the engine's old segment reversal (a roll on the outer side), which the
package replaced with in-place flips of the order and its position matrix;
the reference run applies it, so the runs must also agree on every order.
``vec_dist`` is the package's distance formula before it worked per
coordinate (differences, then einsum or abs-sum over the trailing axis),
and ``pairwise_distances`` builds the oracle's matrices from it, so no
oracle here shares the distance code it checks; test_geometry requires the
package's distances to equal it bit for bit.  ``_nn_path`` is the
layered module's own nearest-neighbour path through the padding cluster,
and ``nn_walk`` the start rule's old walk over full matrix rows; the package
replaced both with one walk over the live points' coordinate rows, which
must visit the same points in the same order.  ``mst_length`` is the
dense Prim over a full distance matrix that the package replaced with Prim
over the live vertices' coordinate rows, driven by the same walk; the test
requires the same weight, bit for bit.
``greedy_insertion`` is the start rule's old loop, which prices every
remaining vertex against every tour edge at each step; the package keeps a
cheapest insertion per vertex instead, and must build the same order.
``build_layered`` and ``part_rows`` are the layered construction's old
point-by-point build and its label-grouping row lookup; the package derives
both from one block layout, and must give the same origins bit for bit, the
same labels and the same rows.
``held_karp`` is the exact solver's old dynamic program, which gathered the
rows of each popcount layer once for every target vertex; the package
gathers each block of a layer once and takes the minimum over predecessors
in one min-plus pass, and must give the same length bits and the same tour.
``min_improvement`` is the old double loop over (a, b); the package prices
a block of b values per a in one gain call, and must return the same value.
``estimate_two_opt_max`` is the old restart loop, one ``run_two_opt`` per
spawned seed in turn; the package runs the restarts as batches of tours in
lockstep, and must return the same estimate, bit for bit.
``max_matching_size`` is an exhaustive search for the largest set of
linked pairs sharing no change; the package solves it as a 0/1 program,
and its count must be the same.
"""

import math

import numpy as np

import twoptlab
from twoptlab.geometry import Metric, _gain
from twoptlab.layered import LayeredInstance, layered_params
from twoptlab.tour import Tour, _coords, _make_change, initial_tour


def vec_dist(a, b, metric) -> np.ndarray:
    """The package's distance formula before it worked per coordinate:
    differences over the trailing axis, then einsum (l2, l2sq) or abs-sum (l1)."""
    m = Metric.parse(metric)
    diff = np.subtract(a, b, dtype=np.float64)
    if m is Metric.MANHATTAN:
        return np.abs(diff, out=diff).sum(axis=-1)
    d = np.einsum("...k,...k->...", diff, diff)
    if m is Metric.EUCLIDEAN:
        d = np.sqrt(d)
    return d


def pairwise_distances(pts, metric) -> np.ndarray:
    """Dense distance matrix, one vec_dist row at a time; zero diagonal."""
    pts = np.asarray(pts, dtype=np.float64)
    D = np.stack([vec_dist(p, pts, metric) for p in pts])
    np.fill_diagonal(D, 0.0)
    return D


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


def nn_walk(pts: np.ndarray, metric) -> list[int]:
    """Nearest-neighbour order from vertex 0 over the full matrix; ties to the smallest index."""
    D = pairwise_distances(pts, metric)
    n = D.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = [0]
    visited[0] = True
    for _ in range(n - 1):
        cur = int(np.argmin(np.where(visited, np.inf, D[order[-1]])))
        visited[cur] = True
        order.append(cur)
    return order


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


def build_layered(p: int, sigma: float = 0.0, t: int | None = None) -> LayeredInstance:
    """The layered construction, one point and one label at a time."""
    params = layered_params(p, sigma, t)
    t = params.t
    P = params.P
    y_num = [sum(p ** (2 * (p - m) - 1) for m in range(i)) for i in range(t + 1)]

    coords: list[tuple[float, float]] = []
    labels: list[tuple[str, int]] = []

    def add_stack(part: str, x_shift_num: int) -> None:
        for i in range(t + 1):
            step = p ** (2 * (p - i))
            for j in range(p ** (2 * i) + 1):
                coords.append(((x_shift_num + j * step) / P, y_num[i] / P))
                labels.append((part, i))

    add_stack("V1", 0)
    add_stack("V2", 2 * p ** (2 * p))

    step_t = p ** (2 * (p - t))
    count_t = p ** (2 * t) + 1
    for j in range(count_t):
        coords.append(((p ** (2 * p) + j * step_t) / P, y_num[t] / P))
        labels.append(("V3", t))

    center = count_t // 2
    cx = (p ** (2 * p) + center * step_t) / P
    cy = y_num[t] / P
    for _ in range(params.padding):
        coords.append((cx, cy))
        labels.append(("pad", t))

    return LayeredInstance(origins=np.asarray(coords, dtype=np.float64), labels=labels, params=params)


def part_rows(li: LayeredInstance) -> dict:
    """Index arrays per (part, layer) label, each sorted left to right by origin."""
    by_key: dict[tuple[str, int], list[int]] = {}
    for idx, key in enumerate(li.labels):
        by_key.setdefault(tuple(key), []).append(idx)
    rows: dict = {}
    for key, ids in by_key.items():
        ids_arr = np.asarray(ids, dtype=np.int64)
        xs = li.origins[ids_arr, 0]
        rows[key] = ids_arr[np.argsort(xs, kind="stable")]
    return rows


def held_karp(pts: np.ndarray, metric) -> tuple[float, list[int]]:
    """Held-Karp over dp[mask, j], one gather per (layer, j): (length, order)."""
    n = pts.shape[0]
    D = pairwise_distances(pts, metric)
    m = n - 1
    size = 1 << m
    dp = np.full((size, m), np.inf)
    dp[1 << np.arange(m), np.arange(m)] = D[0, 1:]

    masks = np.arange(size, dtype=np.int64)
    pop = np.zeros(size, dtype=np.int8)
    for b in range(m):
        pop += ((masks >> b) & 1).astype(np.int8)
    by_pop = [masks[pop == k] for k in range(m + 1)]

    for k in range(1, m):
        layer = by_pop[k]
        vals = dp[layer]
        for j in range(m):
            free = (layer >> j) & 1 == 0
            if not free.any():
                continue
            src = vals[free] + D[1:, j + 1]
            dp[:, j][layer[free] | (1 << j)] = src.min(axis=1)

    full = size - 1
    totals = dp[full] + D[1:, 0]
    j = int(np.argmin(totals))
    best_len = float(totals[j])
    mask = full
    rev = [j + 1]
    while mask != (1 << j):
        pmask = mask ^ (1 << j)
        row = dp[pmask] + D[1:, j + 1]
        i = int(np.argmin(row))
        mask, j = pmask, i
        rev.append(j + 1)
    return best_len, [0] + rev[::-1]


def min_improvement(pts: np.ndarray, metric, eps: float) -> float | None:
    """Smallest gain above eps over all ordered quadruples, one (a, b) at a time."""
    n = pts.shape[0]
    D = pairwise_distances(pts, metric)
    best = math.inf
    idx = np.arange(n)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            g = _gain(D[a, b], D, D[a][:, None], D[b][None, :])
            g[a, :] = -np.inf
            g[b, :] = -np.inf
            g[:, a] = -np.inf
            g[:, b] = -np.inf
            g[idx, idx] = -np.inf
            pos = g[g > eps]
            if pos.size:
                best = min(best, float(pos.min()))
    return None if best is math.inf else best


def estimate_two_opt_max(inst_or_points, metric, restarts: int, pivot: str, eps: float,
                         seed: int) -> float:
    """The largest final length of one run_two_opt per spawned restart seed."""
    pts = _coords(inst_or_points)
    children = np.random.SeedSequence(seed).spawn(restarts)
    worst = -math.inf
    for child in children:
        run_seed = int(child.generate_state(1, np.uint64)[0])
        rec = twoptlab.run_two_opt(
            pts, metric, init="random", pivot=pivot, eps=eps, seed=run_seed,
            keep_changes=False,
        )
        worst = max(worst, rec.final_length)
    return worst


def max_matching_size(pairs) -> int:
    """The size of a maximum matching over the pairs, by exhaustive search:
    the smallest vertex left is either unmatched or matched along one of its
    pairs.  Each set of pairs left is searched once per call."""
    memo = {}

    def search(left: frozenset) -> int:
        if left not in memo:
            best = 0
            if left:
                v = min(min(p) for p in left)
                best = search(frozenset(p for p in left if v not in p))
                for p in left:
                    if v in p:
                        best = max(best, 1 + search(frozenset(q for q in left if not set(p) & set(q))))
            memo[left] = best
        return memo[left]

    return search(frozenset(tuple(p) for p in pairs))
