"""Random instance models and the Gaussian bookkeeping behind them.

Two input models are provided:

* the two-step model: adversarial origins in [0,1]^d, then i.i.d. Gaussian
  noise N(0, sigma^2 I) added to every origin (``perturb``);
* the one-step model: every point drawn uniformly from its own axis-aligned
  subcube of side phi^(-1/d) (``one_step_sample``).  A one-step sample is
  returned as a plain ``Instance`` with ``origins == points`` and
  ``sigma == 0`` so the regeneration invariant below holds for both models.

An ``Instance`` is reproducible: ``perturb(origins, sigma, seed)`` rebuilds
``points`` bit-exactly (numpy Generator/PCG64 seeded with ``seed``; Gaussians
from numpy's ziggurat sampler).

The second half of the module is the probability toolkit: the chi density of
the norm of a d-dimensional Gaussian, its negative moments, the Gaussian
ball/line/tail estimates, and Monte-Carlo estimators used to sanity-check all
of them empirically.  Closed forms are authored here; tests verify them
against independent quadrature.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import IO

import numpy as np

from .geometry import as_points

__all__ = [
    "Instance",
    "OneStepSpec",
    "perturb",
    "one_step_sample",
    "make_origins",
    "d_max_bound",
    "chi_pdf",
    "chi_inverse_moment",
    "chi_square_tail",
    "mc_ball_mass",
    "mc_line_closeness",
    "mc_dominance",
    "DominanceSample",
]

MAX_SIGMA = 1.0  # convention: sigma above this needs an explicit override
ORIGIN_RULES = ("uniform", "grid", "single-point")  # the layouts of make_origins


_MAX_COORDINATES = 2**24  # n * dim of make_origins; 8x the largest layered instance's


def _check_sigma(sigma: float, allow_large_sigma: bool = False) -> None:
    """The perturbation-strength rule: finite, >= 0 and, unless overridden, <= MAX_SIGMA."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma > MAX_SIGMA and not allow_large_sigma:
        raise ValueError(
            f"sigma={sigma} exceeds {MAX_SIGMA}; pass allow_large_sigma=True to override"
        )


def _check_origins(rule: str, n: int, dim: int) -> None:
    """make_origins' rule for its arguments, checked before anything is allocated."""
    if n < 1:
        raise ValueError(f"need n >= 1 origins, got {n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    if n * dim > _MAX_COORDINATES:
        raise ValueError(
            f"n={n} points in dim={dim} are {n * dim} coordinates, over {_MAX_COORDINATES}"
        )
    if rule not in ORIGIN_RULES:
        raise ValueError(f"unknown origins rule {rule!r}")


def _json_object(data, keys: tuple[str, ...], what: str) -> None:
    """Raise unless ``data`` is a JSON object holding every key in ``keys``."""
    if not isinstance(data, dict) or not set(keys) <= set(data):
        raise ValueError(f"{what} must be an object with keys {list(keys)}, got {str(data)[:60]}")


def _json_value(value, what: str, integral: bool = False):
    """A parsed JSON number as a float, or as an int if ``integral``; other values raise.

    Only an int or a float is a number (a bool is not), and a float must be
    able to hold it.
    """
    try:
        if type(value) is int or type(value) is float and (not integral or value.is_integer()):
            return int(value) if integral else float(value)
    except OverflowError:
        pass
    kind = "an integer" if integral else "a number"
    raise ValueError(f"{what} must be {kind}, got {value!r:.60}")


def _json_number(data: dict, key: str, integral: bool = False):
    """``data[key]`` as a float, or as an int if ``integral``; other values raise."""
    return _json_value(data[key], repr(key), integral)


def _json_array(value, key: str) -> np.ndarray:
    """A JSON list of coordinate rows as a float array; each element must be a number."""
    cells = np.asarray(value, dtype=object)
    what = f"each element of {key!r}"
    floats = [_json_value(x, what) for x in cells.flat]
    return np.array(floats, dtype=np.float64).reshape(cells.shape)


@dataclasses.dataclass
class Instance:
    """A perturbed point set together with everything needed to rebuild it.

    Attributes:
        dim: ambient dimension d >= 1.
        sigma: Gaussian standard deviation used for the perturbation.
        seed: RNG seed the perturbation was drawn with.
        origins: (n, d) array of unperturbed origins.
        points: (n, d) array of perturbed points, same shape as origins.
    """

    dim: int
    sigma: float
    seed: int
    origins: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        self.origins = np.asarray(self.origins, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.origins.ndim != 2 or self.origins.shape[1] != self.dim:
            raise ValueError(
                f"origins must have shape (n, {self.dim}), got {self.origins.shape}"
            )
        if self.points.shape != self.origins.shape:
            raise ValueError(
                f"points shape {self.points.shape} != origins shape {self.origins.shape}"
            )
        as_points(self.origins)
        as_points(self.points)
        _check_sigma(self.sigma, allow_large_sigma=True)

    @property
    def n(self) -> int:
        return int(self.origins.shape[0])

    def to_json(self, fp: IO[str] | None = None) -> str:
        """Serialize as JSON with exactly the keys dim/sigma/seed/origins/points.

        Floats go through Python's shortest-repr formatting, so a load/dump
        round trip is bit-exact.
        """
        payload = {
            "dim": self.dim,
            "sigma": self.sigma,
            "seed": self.seed,
            "origins": self.origins.tolist(),
            "points": self.points.tolist(),
        }
        text = json.dumps(payload)
        if fp is not None:
            fp.write(text)
        return text

    @classmethod
    def from_json(cls, source: str | IO[str]) -> "Instance":
        """Load a ``to_json`` file; its points must regenerate from origins, sigma and seed."""
        inst = cls._from_data(json.loads(source if isinstance(source, str) else source.read()))
        inst._check_regenerates()
        return inst

    def _check_regenerates(self) -> None:
        """Raise unless ``perturb(origins, sigma, seed)`` rebuilds ``points`` exactly."""
        again = perturb(self.origins, self.sigma, self.seed, allow_large_sigma=True)
        if not np.array_equal(again.points, self.points):
            raise ValueError("points do not regenerate from origins, sigma and seed")

    @classmethod
    def _from_data(cls, data) -> "Instance":
        _json_object(data, ("dim", "sigma", "seed", "origins", "points"), "instance JSON")
        return cls(
            dim=_json_number(data, "dim", integral=True),
            sigma=_json_number(data, "sigma"),
            seed=_json_number(data, "seed", integral=True),
            origins=_json_array(data["origins"], "origins"),
            points=_json_array(data["points"], "points"),
        )


@dataclasses.dataclass(frozen=True)
class OneStepSpec:
    """One-step model: point i is uniform in a subcube of side phi^(-1/d).

    Attributes:
        phi: density parameter, phi >= 1 (side length phi^(-1/d) <= 1).
        dim: ambient dimension.
        cells: (m, dim) array of subcube lower corners inside [0,1]^d.
    """

    phi: float
    dim: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.float64))
        if not self.phi >= 1.0:
            raise ValueError(f"phi must be >= 1, got {self.phi}")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim:
            raise ValueError(f"cells must have shape (m, {self.dim})")
        side = self.side
        lo = self.cells.min(initial=0.0)
        hi = (self.cells + side).max(initial=0.0)
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError("subcubes must lie inside the unit cube")

    @property
    def side(self) -> float:
        return self.phi ** (-1.0 / self.dim)


def perturb(
    origins,
    sigma: float,
    seed: int,
    allow_large_sigma: bool = False,
) -> Instance:
    """Add N(0, sigma^2 I) noise to every origin.

    sigma == 0 returns points identical to the origins (the RNG is still
    consumed identically, but multiplied by zero).  sigma > 1 is refused
    unless allow_large_sigma is set; above that the smoothed model degenerates
    and every closed-form bound in this package loses its meaning.
    """
    origins = np.asarray(origins, dtype=np.float64)
    if origins.ndim != 2:
        raise ValueError(f"origins must be an (n, d) array, got shape {origins.shape}")
    _check_sigma(sigma, allow_large_sigma)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(origins.shape)
    points = origins + sigma * noise
    return Instance(
        dim=int(origins.shape[1]),
        sigma=float(sigma),
        seed=int(seed),
        origins=origins.copy(),
        points=points,
    )


def one_step_sample(spec: OneStepSpec, n: int, seed: int) -> Instance:
    """Draw n points from the one-step model.

    Point i lives in cell i mod m (cells are cycled when n exceeds the number
    of cells).  The result is packaged with origins == points and sigma == 0,
    which keeps the Instance regeneration invariant trivially true; the cell
    structure stays in the OneStepSpec.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    rng = np.random.default_rng(seed)
    m = spec.cells.shape[0]
    if m < 1:
        raise ValueError("spec has no cells")
    corners = spec.cells[np.arange(n) % m]
    points = corners + spec.side * rng.random((n, spec.dim))
    return Instance(dim=spec.dim, sigma=0.0, seed=int(seed), origins=points.copy(), points=points)


def make_origins(rule: str, n: int, dim: int, seed: int) -> np.ndarray:
    """Origin layouts used by the CLI and the experiment harness.

    Rules: "uniform" (i.i.d. uniform in [0,1]^d), "grid" (the first n nodes, in
    C order, of the smallest k^d lattice with k^d >= n, scaled to span [0,1]^d), and
    "single-point" (all origins at the cube center).  The uniform rule draws
    from default_rng(SeedSequence([seed, 1])) so it never shares a stream with
    the perturbation noise for the same seed.  More than 2^24 coordinates
    (n * dim) raise ValueError.
    """
    _check_origins(rule, n, dim)
    if rule == "uniform":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        return rng.random((n, dim))
    if rule == "grid":
        k = 1
        while k**dim < n:
            k += 1
        # node i's lattice indices are its base-k digits, the last axis fastest
        digits = np.zeros((n, dim), dtype=np.int64)
        rest = np.arange(n)
        for axis in range(dim - 1, -1, -1):
            if not rest.any():
                break
            digits[:, axis], rest = rest % k, rest // k
        axis_values = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.5])
        return axis_values[digits]
    return np.full((n, dim), 0.5)


# ---------------------------------------------------------------------------
# closed forms


def d_max_bound(n: int, sigma: float, c: float = 2.0) -> float:
    """High-probability bound c (sigma sqrt(n ln n) + 1) on the point spread.

    Valid for n >= 2 (ln 1 = 0 would make the bound vacuous).  c defaults to
    2; smaller constants weaken the failure probability and are the caller's
    responsibility.
    """
    if n < 2:
        raise ValueError(f"spread bound needs n >= 2, got {n}")
    _check_sigma(sigma, allow_large_sigma=True)
    return c * (sigma * math.sqrt(n * math.log(n)) + 1.0)


def _check_chi(d: int, sigma: float) -> None:
    """The chi-distribution argument rule: d >= 1 and sigma > 0 (NaN fails)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


def chi_pdf(x, d: int, sigma: float):
    """Density of |Z| for Z ~ N(0, sigma^2 I_d) at x >= 0.

        chi(x) = 2^(1-d/2) (x/sigma)^(d-1) exp(-(x/sigma)^2 / 2) / (sigma Gamma(d/2))

    d = 1, 2, 3 reduce to the half-normal, Rayleigh and Maxwell densities.
    Accepts scalars or arrays; negative x has density 0.
    """
    _check_chi(d, sigma)
    x_in = np.asarray(x, dtype=np.float64)
    scalar = x_in.ndim == 0
    x_arr = np.atleast_1d(x_in)
    out = np.zeros(x_arr.shape)
    ok = x_arr >= 0.0
    r = x_arr[ok] / sigma
    log_norm = (1.0 - d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0) - math.log(sigma)
    if d == 1:
        out[ok] = np.exp(log_norm - 0.5 * r * r)
    else:
        log_r = np.log(r, out=np.full(r.shape, -np.inf), where=r > 0.0)
        out[ok] = np.exp(log_norm + (d - 1) * log_r - 0.5 * r * r)
    return float(out[0]) if scalar else out


def chi_inverse_moment(d: int, c: float, sigma: float) -> float:
    """E[|Z|^(-c)] for Z ~ N(0, sigma^2 I_d): 2^(-c/2) Gamma((d-c)/2) / (sigma^c Gamma(d/2)).

    Finite only for c < d; other arguments raise.
    """
    _check_chi(d, sigma)
    if c >= d:
        raise ValueError(f"inverse moment diverges for c >= d (c={c}, d={d})")
    log_val = (
        -0.5 * c * math.log(2.0)
        + math.lgamma((d - c) / 2.0)
        - math.lgamma(d / 2.0)
        - c * math.log(sigma)
    )
    return math.exp(log_val)


def chi_square_tail(d: int, sigma: float, t: float) -> tuple[float, float]:
    """Threshold/probability pair for the norm of a d-dim Gaussian.

    Returns (threshold, bound) with threshold = sigma * 3 sqrt(d ln t) and
    bound = t^(-2.9 d), valid for t >= 3:  P(|Z| >= threshold) <= bound.
    """
    _check_chi(d, sigma)
    if not t >= 3.0:
        raise ValueError(f"tail bound requires t >= 3, got {t}")
    threshold = sigma * 3.0 * math.sqrt(d * math.log(t))
    bound = t ** (-2.9 * d)
    return threshold, bound


# ---------------------------------------------------------------------------
# Monte-Carlo estimators


def _gaussian_batch(rng: np.random.Generator, samples: int, d: int, sigma: float, mean=None):
    """``samples`` draws of N(mean, sigma^2 I_d) as rows; mean defaults to the origin."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    _check_sigma(sigma, allow_large_sigma=True)
    z = sigma * rng.standard_normal((samples, d))
    if mean is not None:
        z += np.asarray(mean, dtype=np.float64)
    return z


def mc_ball_mass(
    d: int,
    sigma: float,
    eps: float,
    samples: int,
    seed: int,
    center=None,
    mean=None,
) -> float:
    """Empirical P(|Z - center| <= eps) for Z ~ N(mean, sigma^2 I_d).

    center and mean default to the origin.  The closed-form counterpart is
    the ball estimate (eps/sigma)^d, which holds for every center.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    rng = np.random.default_rng(seed)
    z = _gaussian_batch(rng, samples, d, sigma, mean)
    if center is not None:
        z = z - np.asarray(center, dtype=np.float64)
    inside = np.einsum("ij,ij->i", z, z) <= eps * eps
    return float(np.mean(inside))


def mc_line_closeness(
    d: int,
    sigma: float,
    eps: float,
    samples: int,
    seed: int,
    a=None,
    b=None,
    mean=None,
) -> float:
    """Empirical P(dist(Z, line(a, b)) <= eps) for Z ~ N(mean, sigma^2 I_d).

    The line defaults to the first coordinate axis.  Closed-form counterpart:
    (eps/sigma)^(d-1), uniform over lines.
    """
    if d < 2:
        raise ValueError("line closeness needs d >= 2")
    if not eps >= 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if (a is None) != (b is None):
        raise ValueError("give both line endpoints or neither")
    rng = np.random.default_rng(seed)
    z = _gaussian_batch(rng, samples, d, sigma, mean)
    if a is None:
        rel = z.copy()
        rel[:, 0] = 0.0  # distance to the x1 axis drops the first coordinate
        dist_sq = np.einsum("ij,ij->i", rel, rel)
    else:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        u = b - a
        norm = math.sqrt(float(np.dot(u, u)))
        if norm == 0.0:
            raise ValueError("line endpoints coincide")
        u = u / norm
        rel = z - a
        proj = rel @ u
        dist_sq = np.einsum("ij,ij->i", rel, rel) - proj * proj
    return float(np.mean(dist_sq <= eps * eps))


@dataclasses.dataclass
class DominanceSample:
    """Sorted norm samples of a centered and a shifted Gaussian.

    ``a`` collects |Z| for Z ~ N(0, sigma^2 I), ``b`` collects |Z + mu|.
    ``cdf_a`` / ``cdf_b`` evaluate the empirical CDFs; stochastic dominance of
    b over a means cdf_b(t) <= cdf_a(t) for every t.
    """

    a: np.ndarray
    b: np.ndarray

    def cdf_a(self, t) -> np.ndarray:
        return np.searchsorted(self.a, np.asarray(t), side="right") / self.a.size

    def cdf_b(self, t) -> np.ndarray:
        return np.searchsorted(self.b, np.asarray(t), side="right") / self.b.size


def mc_dominance(d: int, sigma: float, mu, samples: int, seed: int) -> DominanceSample:
    """Sample |N(0, sigma^2 I)| and |N(mu, sigma^2 I)| for a dominance check."""
    rng = np.random.default_rng(seed)
    mu = np.zeros(d) if mu is None else np.asarray(mu, dtype=np.float64)
    if mu.shape != (d,):
        raise ValueError(f"mu must have shape ({d},), got {mu.shape}")
    za = _gaussian_batch(rng, samples, d, sigma)
    zb = _gaussian_batch(rng, samples, d, sigma, mu)
    a = np.sort(np.sqrt(np.einsum("ij,ij->i", za, za)))
    b = np.sort(np.sqrt(np.einsum("ij,ij->i", zb, zb)))
    return DominanceSample(a=a, b=b)
