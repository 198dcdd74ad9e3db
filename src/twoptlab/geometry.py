"""Metrics and elementary 2-change geometry.

Three point-to-point distances are supported: Manhattan (l1), Euclidean (l2)
and squared Euclidean (l2sq).  Squared Euclidean is deliberately kept even
though it violates the triangle inequality -- several experiments probe
exactly that regime.

``vec_dist`` is the one implementation of the three metrics (its d <= 2
branch combines per-axis differences in ``_per_axis``, which the tour
module's nearest-neighbour walk also calls); ``distance`` and
``pairwise_distances`` are shapes around it.  A distance is therefore the
same float whichever of them computed it; ``_gain`` is the one 2-change gain
expression, whose order of operations the exact ball filter of ``tour`` rests
on.  So every scan and the scalar formulas below agree bit for bit.

The module also provides the two scalar quantities everything downstream is
built from:

* ``delta(a, b, c)`` -- the difference d(c,a) - d(c,b), i.e. how much closer
  ``c`` sits to ``b`` than to ``a``.
* ``two_change_gain(x1, x2, x3, x4)`` -- the length saved by removing the
  tour edges (x1,x2), (x3,x4) and reconnecting as (x1,x3), (x2,x4).

``eta_geometry_y`` inverts the Euclidean level-set relation used when two
points at vertical distance ``delta_ab`` act as foci: given the difference
eta of the two distances and the horizontal coordinate x of a third point,
it returns the non-negative vertical coordinate y with
|z-a| - |z-b| = eta (a hyperbola branch).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

import numpy as np

__all__ = [
    "Metric",
    "as_points",
    "distance",
    "pairwise_distances",
    "vec_dist",
    "delta",
    "two_change_gain",
    "eta_geometry_y",
]


class Metric(str, enum.Enum):
    """Distance functions understood by the lab.

    The enum values double as the CLI / config tokens.
    """

    MANHATTAN = "l1"
    EUCLIDEAN = "l2"
    SQ_EUCLIDEAN = "l2sq"

    @classmethod
    def parse(cls, token: "Metric | str") -> "Metric":
        if isinstance(token, Metric):
            return token
        try:
            return cls(token)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown metric {token!r} (expected one of: {names})") from None


def as_points(points: Iterable) -> np.ndarray:
    """Coerce to a float64 (n, d) array; 2 n d (max - min)^2 finite, so no length overflows."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected an (n, d) coordinate array, got shape {arr.shape}")
    # C order: vec_dist's einsum path (d >= 3) adds in an order that follows the layout
    arr = np.ascontiguousarray(arr)
    span = float(arr.max()) - float(arr.min())
    if not math.isfinite(2 * arr.size * (span * span)):
        raise ValueError("coordinates must be finite and keep 2 n d (max - min)^2 finite, "
                         f"got max - min = {span:.3g}")
    return arr


def distance(a, b, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """Distance between two points under the given metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"point dimensions differ: {a.shape} vs {b.shape}")
    return float(vec_dist(np.atleast_1d(a), np.atleast_1d(b), metric))


# Elements of one pairwise_distances block: its (rows, n, d) coordinate
# differences plus its (rows, n) distances.  Small against the matrix, so
# a matrix build peaks at little more than the matrix itself.
_BLOCK_ELEMENTS = 2**16


def pairwise_distances(points, metric: Metric | str = Metric.EUCLIDEAN) -> np.ndarray:
    """Dense (n, n) distance matrix. Symmetric with a zero diagonal.

    Computed from coordinate differences (blocked to bound memory) rather
    than the Gram-matrix identity: the latter loses absolute precision near
    coincident points, and the 2-opt engine compares gains at 1e-12.
    """
    return _pairwise(as_points(points), metric)


def _pairwise(pts: np.ndarray, metric: Metric | str) -> np.ndarray:
    """pairwise_distances of (..., n, d) points that as_points has already checked: (..., n, n).

    Leading axes stack point sets; a block holds its rows of every set, so
    the block budget covers the whole stack.
    """
    m = Metric.parse(metric)
    *lead, n, dim = pts.shape
    d = np.empty((*lead, n, n))
    block = max(1, _BLOCK_ELEMENTS // (math.prod(lead) * n * (dim + 1)))
    for lo in range(0, n, block):
        d[..., lo : lo + block, :] = vec_dist(pts[..., lo : lo + block, None, :],
                                              pts[..., None, :, :], m)
    d.reshape(*lead, n * n)[..., :: n + 1] = 0.0
    return d


def vec_dist(a, b, metric: Metric | str = Metric.EUCLIDEAN) -> np.ndarray:
    """Distances between the points of two arrays broadcast against each other.

    ``a`` and ``b`` are (..., d) coordinate arrays that broadcast to a common
    shape (..., d); the result has shape (...), and a single pair gives an
    ``np.float64``.  With ``_per_axis`` this is the only code that computes
    l1, l2 and l2sq.

    Rows and blocks with d <= 2 are computed per coordinate on strided
    views: one subtraction per coordinate, then ``_per_axis``'s |dx| + |dy|
    or dx*dx + dy*dy.
    A sum of one or two terms has one order, which ``sum`` and ``einsum``
    both take, so the bits are those of the general path below, without its
    per-call cost over a length-2 trailing axis.  From d = 3 on ``einsum``
    adds the products in an order of its own (at d = 4 it is
    (p0 + p2) + (p1 + p3)), so higher dimensions, and single pairs, where
    the cost is the call itself, keep the general path.
    """
    m = Metric.parse(metric)
    a, b = np.asarray(a), np.asarray(b)
    dims = a.shape[-1:] + b.shape[-1:]
    if len(dims) == 2 and max(a.ndim, b.ndim) > 1 and 0 < min(dims) <= max(dims) <= 2:
        # index -1 is the second coordinate, or the first where a trailing
        # axis of length 1 broadcasts
        x = np.subtract(a[..., 0], b[..., 0], dtype=np.float64)
        y = np.subtract(a[..., -1], b[..., -1], dtype=np.float64) if max(dims) == 2 else None
        if m is Metric.MANHATTAN:  # no square to overflow; errstate costs microseconds
            return _per_axis(m, x, y)
        with np.errstate(over="ignore"):  # as in einsum, a square overflows to inf silently
            return _per_axis(m, x, y)
    diff = np.subtract(a, b, dtype=np.float64)
    if m is Metric.MANHATTAN:
        return np.abs(diff, out=diff).sum(axis=-1)
    d = np.einsum("...k,...k->...", diff, diff)
    if m is Metric.EUCLIDEAN:
        d = np.sqrt(d)
    return d


def _per_axis(m: Metric, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """vec_dist's d <= 2 metric from the per-coordinate differences x and y
    (None when d = 1), computed in place in x (and y).

    |x| + |y|, x*x + y*y or its square root.  A square may overflow to inf;
    the caller sets ``np.errstate(over="ignore")``, once around as many
    calls as it makes.
    """
    if m is Metric.MANHATTAN:
        np.abs(x, out=x)
        if y is not None:
            x += np.abs(y, out=y)
        return x
    x *= x
    if y is not None:
        y *= y
        x += y
    if m is Metric.EUCLIDEAN:
        np.sqrt(x, out=x)
    return x


def delta(a, b, c, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """d(c, a) - d(c, b): positive when c is nearer to b than to a."""
    return distance(c, a, metric) - distance(c, b, metric)


def two_change_gain(x1, x2, x3, x4, metric: Metric | str = Metric.EUCLIDEAN) -> float:
    """Gain of the 2-change replacing edges (x1,x2),(x3,x4) by (x1,x3),(x2,x4).

    Points are given in tour order, so x2 follows x1 and x4 follows x3.
    Positive gain means the exchange shortens the tour.
    """
    m = Metric.parse(metric)
    return float(_gain(distance(x1, x2, m), distance(x3, x4, m),
                       distance(x1, x3, m), distance(x2, x4, m)))


def _gain(el_i, el_j, d13, d24):
    """Gain (el_i + el_j) - d13 - d24, left to right: the only code combining its terms."""
    g = np.add(el_i, el_j)
    g -= d13
    g -= d24
    return g


def eta_geometry_y(eta: float, x: float, delta_ab: float) -> float:
    """Vertical coordinate on the distance-difference level set.

    With foci a = (0, -delta_ab/2) and b = (0, +delta_ab/2), a point
    z = (x, y), y >= 0, satisfies |z - a| - |z - b| = eta exactly when

        y^2 = eta^2 / 4 + eta^2 x^2 / (delta_ab^2 - eta^2).

    Defined for 0 <= eta < delta_ab (the difference of distances to the foci
    can never reach their separation off the axis).

    Args:
        eta: target distance difference, 0 <= eta < delta_ab.
        x: horizontal coordinate of the point.
        delta_ab: distance between the two foci (> 0).

    Returns:
        The non-negative y with |z-a| - |z-b| = eta.
    """
    if delta_ab <= 0.0:
        raise ValueError(f"focus separation must be positive, got {delta_ab}")
    if eta < 0.0 or eta >= delta_ab:
        raise ValueError(
            f"eta must satisfy 0 <= eta < delta_ab, got eta={eta}, delta_ab={delta_ab}"
        )
    y_sq = eta * eta / 4.0 + (eta * eta * x * x) / (delta_ab * delta_ab - eta * eta)
    return math.sqrt(y_sq)
