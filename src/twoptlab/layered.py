"""A layered 2-D instance on which 2-opt admits a very long local optimum.

Geometry (parameter p, odd and >= 3; depth t, odd, 1 <= t <= p).  ``_layout``
lists the blocks below in index order; block point j sits at integer
numerators ((x0 + j step)/P, y/P), P = 3 p^(2p), so repeats coincide exactly:

* Stack V1: layers i = 0..t.  Layer i holds p^(2i)+1 points spaced
  a_i = p^(2p-2i)/P apart, spanning x in [0, 1/3] at height
  y_i = c_0 + ... + c_(i-1), where c_i = p^(2p-2i-1)/P = a_i/p.  Each layer
  is p^2 times denser than the one below it and sits only c_i above it, so
  a point can always be "picked up" from the layer above at negligible cost
  -- the globally short tours exploit this, the designated long tour does
  not.
* Stack V2: V1 shifted by (2/3, 0), spanning x in [2/3, 1].
* Bridge V3: a full copy of layer t shifted by (1/3, 0), spanning the gap
  [1/3, 2/3] at height y_t.  Its end points coincide with the top-layer end
  points of V1 and V2.
* Padding: p^(2p) - 1 extra points on the central bridge point C (index
  count//2 of V3); they pin the instance size independently of t.  A loaded
  file must match the rebuilt construction label for label and bit for bit.

The designated long tour snakes through V1 from layer 0 up to layer t
(alternating direction, so t must be odd for the top layer to end at the
bridge), crosses V3 left to right, descends V2 top to bottom, and closes
with the long edge back to the origin corner; it has length >= (2/3)(t+1)
while the optimum stays O(1), and no 2-change improves it.

Perturbation robustness: with sigma <= 1/(3 p^(2t+1)) (the default-t rule),
beta = a_t/8 = 1/(24 p^(2t)) is a comfortable multiple of sigma, and when
every point stays within beta of its origin (``check_containers``) the
perturbed designated tour remains 2-optimal.  Two details make that true on
actual perturbed data, both local to coincident points: the padding cluster
is traversed along the engine's nearest-neighbour walk over coordinate
rows (from C's left bridge neighbor), refined by a path-restricted 2-opt
(anchored at C's bridge neighbors), and each coincident junction pair is
visited in the order that minimizes the two incident edges.  The ground
truth is always ``certify_two_optimality``, which rules on every pair (it
evaluates those a ball query cannot rule out, with an exact bound).
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from typing import IO

import numpy as np

from .exact import _ratio, _upper_bound
from .geometry import Metric, _pairwise, vec_dist
from .stochastic import Instance, _check_sigma, _json_number, _json_object, perturb
from .tour import _EPS, Tour, Violation, _check_stopping, _nn_walk, _scan
from .tour import certify_two_optimality, tour_length

__all__ = [
    "LayeredParams",
    "LayeredInstance",
    "default_t",
    "layered_params",
    "build_layered",
    "build_long_tour",
    "check_containers",
    "ratio_lower_bound",
]

# build_layered's size budget: p = 3 needs at most 3106 points, p >= 5 over 9.7e6
MAX_POINTS = 2**20

# Slack for the default-t threshold 3 sigma p^(2t+1) <= 1: natural sigma
# choices (e.g. 1/6561) are not binary-exact, and the next candidate t
# changes the product by p^4, so the slack can never flip a genuine case.
_T_RULE_SLACK = 1e-9


def _validate_p(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p}")


def default_t(p: int, sigma: float) -> int:
    """Largest odd t <= p with 3 sigma p^(2t+1) <= 1; sigma = 0 gives t = p."""
    _validate_p(p)
    _check_sigma(sigma, allow_large_sigma=True)
    if sigma == 0.0:
        return p
    # exact rational arithmetic: p ** (2t+1) overflows a float for large p
    bound = 1 + Fraction(_T_RULE_SLACK)
    for t in range(p, 0, -2):
        if 3 * Fraction(sigma) * p ** (2 * t + 1) <= bound:
            return t
    raise ValueError(
        f"sigma={sigma} is too large for p={p}: even t=1 violates 3 sigma p^3 <= 1"
    )


@dataclasses.dataclass(frozen=True)
class LayeredParams:
    """Resolved construction parameters.

    a[i] and c[i] are the horizontal spacing and vertical gap of layer i;
    beta = a[t]/8 is the container radius of the robustness argument.
    """

    p: int
    t: int
    sigma: float
    P: int
    a: tuple[float, ...]
    c: tuple[float, ...]
    beta: float
    padding: int

    @property
    def n(self) -> int:
        return sum(count for *_, count, _ in _layout(self))


def layered_params(p: int, sigma: float = 0.0, t: int | None = None) -> LayeredParams:
    """Resolve (p, sigma, t) into the full parameter set, validating all rules."""
    _validate_p(p)
    _check_sigma(sigma, allow_large_sigma=True)
    if t is None:
        t = default_t(p, sigma)
    else:
        if t % 2 == 0 or t < 1:
            raise ValueError(f"t must be an odd integer >= 1, got {t}")
        if t > p:
            raise ValueError(f"t must not exceed p (layer spacings are powers of 1/p^2), got t={t} > p={p}")
    P = 3 * p ** (2 * p)
    a = tuple(p ** (2 * (p - i)) / P for i in range(t + 1))
    c = tuple(p ** (2 * (p - i) - 1) / P for i in range(t + 1))
    return LayeredParams(
        p=p, t=t, sigma=float(sigma), P=P, a=a, c=c,
        beta=a[t] / 8.0, padding=p ** (2 * p) - 1,
    )


def _layout(params: LayeredParams) -> list[tuple[str, int, int, int, int, int]]:
    """The construction's blocks in index order: (part, layer, x0, step, count, y).

    Point j < count of a block sits at ((x0 + j step) / P, y / P).  V1 and V2
    list layers 0..t, V3 copies V1's top layer, and the padding sits on the
    bridge's central point (step 0).
    """
    p, t, width = params.p, params.t, params.p ** (2 * params.p)
    blocks = []
    for part, x0 in (("V1", 0), ("V2", 2 * width)):
        y = 0
        for i in range(t + 1):
            blocks.append((part, i, x0, p ** (2 * (p - i)), p ** (2 * i) + 1, y))
            y += p ** (2 * (p - i) - 1)
    _, _, _, step, count, y = blocks[t]
    blocks.append(("V3", t, width, step, count, y))
    blocks.append(("pad", t, width + count // 2 * step, 0, params.padding, y))
    return blocks


def _sized_params(p: int, sigma: float, t: int | None) -> LayeredParams:
    """layered_params, refusing constructions above MAX_POINTS points."""
    params = layered_params(p, sigma, t)
    if params.n > MAX_POINTS:
        raise ValueError(f"layered instance p={p} has {params.n} points, over {MAX_POINTS}")
    return params


@dataclasses.dataclass
class LayeredInstance:
    """Origins, per-point labels (part, layer) and resolved parameters.

    Parts: "V1" / "V2" (the two stacks), "V3" (the bridge, layer t),
    "pad" (the padding cluster on the central bridge point).
    """

    origins: np.ndarray
    labels: list[tuple[str, int]]
    params: LayeredParams

    @property
    def n(self) -> int:
        return int(self.origins.shape[0])

    def part_rows(self) -> dict:
        """Index ranges per (part, layer) block, each ordered left to right."""
        rows, start = {}, 0
        for part, layer, _, _, count, _ in _layout(self.params):
            rows[(part, layer)] = np.arange(start, start + count)
            start += count
        return rows

    def unperturbed(self) -> Instance:
        return Instance(dim=2, sigma=0.0, seed=0,
                        origins=self.origins.copy(), points=self.origins.copy())

    def perturbed(self, seed: int) -> Instance:
        return perturb(self.origins, self.params.sigma, seed)

    def _check_origins(self, inst: Instance) -> None:
        """Raise unless ``inst`` was perturbed from this construction's origins."""
        if inst.origins.shape != self.origins.shape or not np.array_equal(
            inst.origins, self.origins
        ):
            raise ValueError("instance origins do not match the construction")

    def to_json(self, inst: Instance | None = None, fp: IO[str] | None = None) -> str:
        """Instance JSON plus "labels" and "params" blocks.

        Without ``inst`` the stored points are the origins themselves (an
        unperturbed instance with sigma = 0, so the regeneration invariant
        holds); the nominal perturbation strength lives in params.sigma.
        """
        if inst is None:
            inst = self.unperturbed()
        self._check_origins(inst)
        payload = json.loads(inst.to_json())
        payload["labels"] = [[part, layer] for part, layer in self.labels]
        payload["params"] = {
            "p": self.params.p,
            "t": self.params.t,
            "sigma": self.params.sigma,
            "P": self.params.P,
            "beta": self.params.beta,
        }
        text = json.dumps(payload)
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_json(cls, source: str | IO[str]) -> tuple["LayeredInstance", Instance]:
        """Load a ``to_json`` file; its labels and origins must match the rebuilt construction.

        Its points must then regenerate from origins, sigma and seed, as for
        ``Instance.from_json``.
        """
        data = json.loads(source if isinstance(source, str) else source.read())
        inst = Instance._from_data(data)
        _json_object(data, ("labels", "params"), "layered-instance JSON")
        meta = data["params"]
        _json_object(meta, ("p", "t", "sigma", "P", "beta"), "layered params")
        li = build_layered(_json_number(meta, "p", integral=True), _json_number(meta, "sigma"),
                           _json_number(meta, "t", integral=True))
        if meta["P"] != li.params.P or not math.isclose(li.params.beta, _json_number(meta, "beta")):
            raise ValueError("stored params are inconsistent with (p, sigma, t)")
        if data["labels"] != [list(key) for key in li.labels]:
            raise ValueError("labels do not match the construction")
        li._check_origins(inst)
        inst._check_regenerates()
        return li, inst


def build_layered(p: int, sigma: float = 0.0, t: int | None = None) -> LayeredInstance:
    """Construct the layered instance for (p, sigma, t), one array per layout block.

    Numerators below 2^53 make numpy's division match Python's int / int, so
    coincident points (junction endpoints, the padding cluster) are
    bit-identical and the unperturbed designated tour certifies at eps =
    1e-15.  More than MAX_POINTS points (every p >= 5) raise ValueError.
    """
    params = _sized_params(p, sigma, t)
    blocks = _layout(params)
    origins = np.concatenate([
        np.column_stack(((x0 + step * np.arange(count)) / params.P, np.full(count, y / params.P)))
        for _, _, x0, step, count, y in blocks
    ])
    labels: list[tuple[str, int]] = []
    for part, layer, _, _, count, _ in blocks:
        labels += [(part, layer)] * count
    return LayeredInstance(origins=origins, labels=labels, params=params)


# ---------------------------------------------------------------------------
# designated tour


def _path_two_opt(pts: np.ndarray, path: list[int], eps: float) -> list[int]:
    """First-improvement 2-opt on an open path; the two end points stay fixed.

    ``path`` includes both anchors; reversals act on interior positions only,
    but cuts at the anchor edges are considered.  This is the tour engine's
    gain kernel over an open path (no wrap-around edge), Euclidean distances,
    first pivot.  After a reversal the scan resumes at the same row, on the
    sub-path from there, as the reversal may enable another cut there; a
    full pass with no reversal certifies path-local optimality.

    The distances come from one ``_pairwise`` matrix over the path's points,
    computed once: ``perm`` maps each path position to its matrix row, a
    reversal reverses only ``perm``, and each kernel block is one gather
    from the matrix, the rows of its positions and then their columns, from
    which the kernel reads d13 and d24 one step apart.  The entries
    are vec_dist's, and the matrix is symmetric, so the gains are those from
    coordinates, bit for bit.
    """
    ids = np.asarray(path, dtype=np.int64)
    D = _pairwise(pts[ids], Metric.EUCLIDEAN)
    perm = np.arange(ids.size)
    row, applied = 0, False
    while True:
        at = perm[row:]

        def dists(i0: int, i1: int, c0: int, ts):
            # whole rows first, then their columns: faster than one 2-D gather
            return D.take(at[i0 : i1 + 1], axis=0).take(at[c0:], axis=1)

        hit = _scan("first", eps, D[at[:-1], at[1:]][None], dists, closed=False)[0]
        if hit is None:
            if not applied:
                return [int(v) for v in ids[perm]]
            row, applied = 0, False
            continue
        row, j = row + hit[0], row + hit[1]
        perm[row + 1 : j + 1] = perm[row + 1 : j + 1][::-1]
        applied = True


def build_long_tour(
    li: LayeredInstance,
    perturbed: Instance | None = None,
    path_eps: float = 1e-15,
) -> Tour:
    """Assemble the designated long tour on the (possibly perturbed) points.

    The macro route is fixed by the construction; the two data-dependent
    micro-choices (padding-cluster path, coincident junction order) are made
    on the actual point coordinates, as described in the module docstring.
    ``path_eps`` is the padding path's 2-opt threshold: finite and > 0.
    """
    _check_stopping(path_eps)
    if perturbed is None:
        perturbed = li.unperturbed()
    li._check_origins(perturbed)
    pts = perturbed.points
    rows = li.part_rows()
    t = li.params.t

    seq: list[int] = []
    for k in range(t + 1):
        row = rows[("V1", k)]
        seq.extend(int(v) for v in (row[::-1] if k % 2 == 0 else row))
    len_v1 = len(seq)

    v3 = rows[("V3", t)]
    center = v3.size // 2
    # nearest-neighbour walk from the left bridge anchor through the cluster
    ids = np.concatenate(([v3[center - 1], v3[center]], rows[("pad", t)]))
    walk = _nn_walk(pts[ids], Metric.EUCLIDEAN)[0]
    path = _path_two_opt(
        pts, [int(v) for v in ids[walk]] + [int(v3[center + 1])], path_eps
    )[1:-1]
    v3_seq = [int(v) for v in v3[:center]] + path + [int(v) for v in v3[center + 1 :]]
    seq.extend(v3_seq)
    len_v3 = len(v3_seq)

    for k in range(t, -1, -1):
        row = rows[("V2", k)]
        seq.extend(int(v) for v in (row if (t - k) % 2 == 0 else row[::-1]))

    def fix_junction(k: int) -> None:
        # pair (u, v) = seq[k], seq[k+1] built on coincident origins; keep or
        # swap so the two incident edges are as short as possible
        a, u, v, b = seq[k - 1], seq[k], seq[k + 1], seq[k + 2]
        keep = float(vec_dist(pts[a], pts[u]) + vec_dist(pts[v], pts[b]))
        swap = float(vec_dist(pts[a], pts[v]) + vec_dist(pts[u], pts[b]))
        if swap < keep:
            seq[k], seq[k + 1] = v, u

    fix_junction(len_v1 - 1)
    fix_junction(len_v1 + len_v3 - 1)
    return Tour.from_order(seq)


def check_containers(li: LayeredInstance, perturbed: Instance) -> tuple[bool, float]:
    """Do all points sit within beta of their origins?

    Returns (ok, worst offset / beta).  The unperturbed instance returns
    (True, 0.0).
    """
    li._check_origins(perturbed)
    offsets = vec_dist(perturbed.points, perturbed.origins, Metric.EUCLIDEAN)
    worst = float(offsets.max()) / li.params.beta
    return worst <= 1.0, worst


def _certificate(li: LayeredInstance, perturbed: Instance,
                 eps: float = _EPS) -> tuple[dict, Violation | None]:
    """The lb row's seven measured fields for the designated tour, and the
    certifier's Violation (None when certified), measured in the row's order."""
    pts = perturbed.points
    tour = build_long_tour(li, perturbed)
    ok, worst = check_containers(li, perturbed)
    violation = certify_two_optimality(pts, tour, Metric.EUCLIDEAN, eps)
    length = tour_length(tour, pts, Metric.EUCLIDEAN)
    mst2 = _upper_bound(pts, Metric.EUCLIDEAN)
    return {
        "container_ok": ok, "worst_offset_ratio": worst,
        "certified": violation is None,
        "max_violation_gain": None if violation is None else violation.gain,
        "tour_length": length, "mst2": mst2, "ratio_lb": _ratio(length, mst2),
    }, violation


def ratio_lower_bound(
    li: LayeredInstance,
    perturbed: Instance | None = None,
    tour: Tour | None = None,
) -> float:
    """Certifiable lower bound on 2-opt's approximation ratio: L / (2 MST).

    Euclidean lengths of ``tour``, by default the designated tour; 2 MST
    upper-bounds the optimal tour, so the value lower-bounds L / OPT.
    """
    if perturbed is None:
        perturbed = li.unperturbed()
    if tour is None:
        tour = build_long_tour(li, perturbed)
    pts = perturbed.points
    return _ratio(tour_length(tour, pts, Metric.EUCLIDEAN), _upper_bound(pts, Metric.EUCLIDEAN))
