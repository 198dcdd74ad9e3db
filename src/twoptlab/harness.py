"""Experiment harness: deterministic sweeps, verification suites, fits.

Sweeps are described by flat ``key = value`` config files (lists are
comma-separated; unknown keys are rejected).  A sweep expands its config
into a cartesian product of configurations, runs ``seeds`` tasks per
configuration, and emits one CSV row per task in canonical
(config_index, seed_index) order.  Rows are computed in the calling
process (width 1, the default) or in forked worker processes, but the
output is independent of scheduling: every task derives its own RNG seed as

    SeedSequence([base_seed, config_index, seed_index]) -> uint64

and results are buffered and written in canonical order, floats formatted
with shortest-repr.  Running the same config twice yields byte-identical
files; ``replay_row`` recomputes any single row from the config alone.

The verification suites re-check the probability estimates behind the
smoothed analysis against simulation: Gaussian ball mass, distance-to-line
mass, norm stochastic dominance, the chi density and its inverse moments,
the norm tail bound, and the linked-pair counting bound on real runs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import gc
import itertools
import math
import os
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .exact import HELD_KARP_MAX_N, _ratio, _upper_bound, estimate_two_opt_max, held_karp
from .geometry import Metric
from .layered import _certificate, _sized_params, build_layered
from .stochastic import (
    _check_origins,
    _check_sigma,
    _gaussian_batch,
    chi_inverse_moment,
    chi_pdf,
    chi_square_tail,
    make_origins,
    mc_ball_mass,
    mc_dominance,
    mc_line_closeness,
    perturb,
)
from .tour import (
    _EPS,
    _check_pivot,
    _check_stopping,
    _rule_token,
    count_disjoint_linked_pairs,
    linked_pair_bound,
    min_improvement,
    run_two_opt,
)

__all__ = [
    "VerificationError",
    "SweepConfig",
    "parse_config",
    "load_config",
    "task_seed",
    "run_sweep",
    "replay_row",
    "write_csv",
    "ROW_COLUMNS",
    "FitResult",
    "scaling_fit",
    "ratio_experiment",
    "VerifyCheck",
    "VerifyReport",
    "verify_suite",
    "VERIFY_SUITES",
]


class VerificationError(Exception):
    """A verification or certification step failed (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# sweep configuration


_LIST_KEYS = {"n", "sigma", "metric", "pivot", "init"}

_RATIO_EXACT_MAX_N = 14
_DELTA_MIN_AUTO_MAX_N = 12


@dataclasses.dataclass
class SweepConfig:
    """A parsed sweep description; see parse_config for the file format."""

    experiment: str = "two_opt"
    n: tuple[int, ...] = ()
    dim: int = 2
    sigma: tuple[float, ...] = ()
    metric: tuple[str, ...] = ("l2",)
    pivot: tuple[str, ...] = ("first",)
    init: tuple[str, ...] = ("random",)
    origins: str = "uniform"
    seeds: int = 1
    base_seed: int = 0
    eps: float = _EPS
    max_iter: int | None = None
    ratio: str = "auto"
    delta_min: str = "auto"
    linked: bool = False
    p: int | None = None
    t: int | None = None

    def configurations(self) -> list[dict]:
        """Expand into the canonical configuration list.

        two_opt: product over (n, sigma, metric, pivot, init), in that
        nesting order.  lb: product over sigma.
        """
        if self.experiment == "two_opt":
            combos = itertools.product(self.n, self.sigma, self.metric, self.pivot, self.init)
            return [
                {"n": n, "sigma": s, "metric": m, "pivot": pv, "init": ini}
                for n, s, m, pv, ini in combos
            ]
        return [{"p": self.p, "t": self.t, "sigma": s} for s in self.sigma]

    def validate(self) -> None:
        if self.experiment not in ("two_opt", "lb"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # a config built in code has no keys, only fields: an unread field
        # must keep its default, or the rows would silently ignore it
        unread = sorted(
            f.name for f in dataclasses.fields(self)
            if f.name not in _EXPERIMENT_KEYS[self.experiment]
            and getattr(self, f.name) != f.default
        )
        if unread:
            raise ValueError(f"{self.experiment} sweeps do not read the config keys {unread}")
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        _check_stopping(self.eps, self.max_iter)
        if self.experiment == "two_opt":
            if not self.n:
                raise ValueError("two_opt sweep needs n = ...")
            if not self.sigma:
                raise ValueError("two_opt sweep needs sigma = ...")
            if min(self.n) < 4:
                raise ValueError("two_opt sweep needs n >= 4")
            for n in self.n:
                _check_origins(self.origins, n, self.dim)
            for s in self.sigma:
                _check_sigma(s)
            for m in self.metric:
                Metric.parse(m)
            for pv in self.pivot:
                _check_pivot(pv)
            for ini in self.init:
                _rule_token(ini)
            if self.ratio not in ("auto", "exact", "bound", "none"):
                raise ValueError(f"unknown ratio mode {self.ratio!r}")
            if self.ratio == "exact" and max(self.n) > HELD_KARP_MAX_N:
                raise ValueError(f"ratio = exact needs n <= {HELD_KARP_MAX_N} (exact solver range)")
            if self.delta_min not in ("auto", "always", "never"):
                raise ValueError(f"unknown delta_min mode {self.delta_min!r}")
        else:
            if self.p is None:
                raise ValueError("lb sweep needs p = ...")
            if not self.sigma:
                raise ValueError("lb sweep needs sigma = ...")
            for s in self.sigma:
                _sized_params(self.p, s, self.t)


# the config keys each experiment reads
_KNOWN_KEYS = frozenset(f.name for f in dataclasses.fields(SweepConfig))
_EXPERIMENT_KEYS = {
    "two_opt": _KNOWN_KEYS - {"p", "t"},
    "lb": frozenset({"experiment", "p", "t", "sigma", "seeds", "base_seed", "eps"}),
}


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key=value format; reject unknown or repeated keys, values
    that do not parse (by line and key) and keys the experiment does not read."""
    cfg, seen = SweepConfig(), set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        seen.add(key)
        try:
            if key in _LIST_KEYS:
                parts = [v.strip() for v in value.split(",") if v.strip()]
                if not parts:
                    raise ValueError("empty list")
                if key == "n":
                    cfg.n = tuple(int(v) for v in parts)
                elif key == "sigma":
                    cfg.sigma = tuple(float(v) for v in parts)
                else:
                    setattr(cfg, key, tuple(parts))
            elif key in ("dim", "seeds", "base_seed"):
                setattr(cfg, key, int(value))
            elif key == "eps":
                cfg.eps = float(value)
            elif key == "max_iter":
                cfg.max_iter = None if value in ("", "none") else int(value)
            elif key == "linked":
                if value not in ("true", "false"):
                    raise ValueError(f"must be true or false, got {value!r}")
                cfg.linked = value == "true"
            elif key in ("p", "t"):
                setattr(cfg, key, None if value in ("", "none", "default") else int(value))
            else:
                setattr(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: key {key!r}: {exc}") from None
    cfg.validate()
    unread = sorted(seen - _EXPERIMENT_KEYS[cfg.experiment])
    if unread:
        raise ValueError(f"{cfg.experiment} sweeps do not read the config keys {unread}")
    return cfg


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# sweep execution


def task_seed(base_seed: int, config_index: int, seed_index: int) -> int:
    """The documented per-task seed derivation (order-independent)."""
    ss = np.random.SeedSequence([base_seed, config_index, seed_index])
    return int(ss.generate_state(1, np.uint64)[0])


# the identifier columns in CSV order, which cli plot-data keeps when it melts a CSV
_ID_COLUMNS = [
    "row_id", "experiment", "config_index", "seed_index", "seed", "n", "dim",
    "sigma", "metric", "pivot", "init", "origins", "eps", "p", "t", "restarts",
]

ROW_COLUMNS = [c for c in _ID_COLUMNS if c != "restarts"] + [
    "iterations", "initial_length", "final_length", "converged",
    "min_gain_observed", "delta_min", "iter_bound", "ratio", "ratio_kind",
    "linked_pairs", "linked_bound", "container_ok", "worst_offset_ratio",
    "certified", "max_violation_gain", "tour_length", "mst2", "ratio_lb",
]


def _two_opt_row(cfg: SweepConfig, conf: dict, config_index: int, seed_index: int) -> dict:
    seed = task_seed(cfg.base_seed, config_index, seed_index)
    n, sigma, metric = conf["n"], conf["sigma"], conf["metric"]
    origins = make_origins(cfg.origins, n, cfg.dim, seed)
    inst = perturb(origins, sigma, seed)
    want_linked = cfg.linked
    rec = run_two_opt(
        inst, metric, init=conf["init"], pivot=conf["pivot"], eps=cfg.eps,
        seed=seed, max_iter=cfg.max_iter, keep_changes=want_linked,
    )
    row = {
        "experiment": "two_opt", "config_index": config_index,
        "seed_index": seed_index, "seed": seed, "n": n, "dim": cfg.dim,
        "sigma": sigma, "metric": rec.metric, "pivot": rec.pivot,
        "init": rec.init, "origins": cfg.origins, "eps": cfg.eps,
        "iterations": rec.iterations, "initial_length": rec.initial_length,
        "final_length": rec.final_length, "converged": rec.converged,
        "min_gain_observed": rec.min_gain_observed,
    }
    mode = cfg.ratio
    if mode == "auto":
        mode = "exact" if n <= _RATIO_EXACT_MAX_N else "bound"
    if mode != "none":
        opt = held_karp(inst, metric).length if mode == "exact" else _upper_bound(inst.points, metric)
        if (ratio := _ratio(rec.final_length, opt)) is not None:
            row["ratio"], row["ratio_kind"] = ratio, mode
    dm_mode = cfg.delta_min
    if dm_mode == "always" or (dm_mode == "auto" and n <= _DELTA_MIN_AUTO_MAX_N):
        dm = min_improvement(inst, metric, cfg.eps)
        row["delta_min"] = dm
        if dm is not None:
            row["iter_bound"] = rec.initial_length / dm
    if want_linked:
        count, _pairs = count_disjoint_linked_pairs(rec.changes, n=n)
        row["linked_pairs"] = count
        row["linked_bound"] = linked_pair_bound(rec.iterations, n)
    return row


def _lb_row(cfg: SweepConfig, conf: dict, config_index: int, seed_index: int) -> dict:
    seed = task_seed(cfg.base_seed, config_index, seed_index)
    li = build_layered(conf["p"], conf["sigma"], conf["t"])
    fields, _ = _certificate(li, li.perturbed(seed), cfg.eps)
    return {
        "experiment": "lb", "config_index": config_index,
        "seed_index": seed_index, "seed": seed, "n": li.n, "dim": 2,
        "sigma": li.params.sigma, "metric": "l2", "eps": cfg.eps,
        "p": li.params.p, "t": li.params.t, **fields,
    }


def _sweep_row(cfg: SweepConfig, confs: list[dict], row_id: int) -> dict:
    """Row ``row_id`` of the sweep."""
    ci, si = divmod(row_id, cfg.seeds)
    row_fn = _two_opt_row if cfg.experiment == "two_opt" else _lb_row
    row = row_fn(cfg, confs[ci], ci, si)
    row["row_id"] = row_id
    return row


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[dict]:
    """Run all tasks of a sweep on up to ``threads`` workers; rows come back in canonical order.

    Width 1 computes the rows in the calling process.  A wider sweep forks
    ``min(threads, rows, usable CPUs)`` worker processes for this call and
    hands them the rows largest first (two_opt rows by n; lb rows in
    canonical order), so the longest rows do not start last.  Each worker
    freezes the heap it forked with (``gc.freeze``) before its first row;
    the caller's gc state is left as it was.

    The first task to raise stops the sweep: queued tasks are cancelled and
    the exception propagates once the running ones have finished.
    """
    if threads < 1:
        raise ValueError(f"worker count must be >= 1, got {threads}")
    cfg.validate()
    confs = cfg.configurations()
    row = functools.partial(_sweep_row, cfg, confs)
    ids = range(len(confs) * cfg.seeds)
    workers = min(threads, len(ids), _usable_cpus())
    if workers == 1:
        return [row(i) for i in ids]
    if cfg.experiment == "two_opt":
        ids = sorted(ids, key=lambda i: confs[i // cfg.seeds]["n"], reverse=True)

    # fork, not spawn: a fresh interpreter that imports twoptlab takes about
    # 0.6 s, as long as a whole small sweep; the workers start all at once,
    # hence the cap on their count above.  Frozen, the inherited heap is
    # never walked by the worker's collections: its first full collection
    # took 28-30 ms unfrozen, writing to the inherited pages, and 0.4 ms
    # frozen.  Freezing in the caller instead would need an unfreeze, which
    # thaws the caller's own frozen objects too.
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=gc.freeze,
    )
    try:
        futures = {pool.submit(row, i): i for i in ids}
        done = {}
        for fut in concurrent.futures.as_completed(futures):
            done[futures[fut]] = fut.result()
        return [done[i] for i in range(len(done))]
    finally:
        pool.shutdown(cancel_futures=True)


def replay_row(cfg: SweepConfig, row_id: int) -> dict:
    """Recompute a single sweep row from the config; no CSV needed."""
    cfg.validate()
    confs = cfg.configurations()
    total = len(confs) * cfg.seeds
    if not 0 <= row_id < total:
        raise ValueError(f"row_id {row_id} out of range (sweep has {total} rows)")
    return _sweep_row(cfg, confs, row_id)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_lines(rows: Iterable[Mapping], columns: Sequence[str]) -> Iterator[str]:
    """The header line, then one line per row."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_format_cell(row.get(col)) for col in columns) + "\n"


def write_csv(rows: Iterable[Mapping], path: str, columns: Sequence[str] = ROW_COLUMNS) -> None:
    """Write rows atomically; floats use shortest-repr so reruns match byte-for-byte.

    The file appears only when complete: data goes to a temp file that is
    renamed into place, and a partially written temp file is removed on error.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_csv_lines(rows, columns))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# fits and ratio experiment


@dataclasses.dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def scaling_fit(rows: Sequence[Mapping], x_field: str, y_field: str) -> FitResult:
    """Least-squares fit of log y against log x over the given rows.

    Needs at least three distinct positive x values; y must be positive.  A
    constant-in-log y (zero residual, zero variance) fits perfectly.
    """
    xs = np.asarray([float(r[x_field]) for r in rows])
    ys = np.asarray([float(r[y_field]) for r in rows])
    if xs.size < 3 or np.unique(xs).size < 3:
        raise ValueError("scaling_fit needs at least three distinct x values")
    if not ((xs > 0) & (ys > 0) & np.isfinite(xs) & np.isfinite(ys)).all():
        raise ValueError("scaling_fit needs finite positive x and y (log-log fit)")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = ly - ly.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=r2)


def ratio_experiment(
    n: int,
    sigma_grid: Sequence[float],
    restarts: int = 50,
    seeds: int = 50,
    base_seed: int = 0,
    origins: str = "grid",
    origin_scale: float = 0.1,
    pivot: str = "first",
    eps: float = _EPS,
) -> list[dict]:
    """Worst-local-optimum to optimum ratio across a sigma grid.

    The design is paired: seed index si fixes one noise draw and one restart
    stream, reused for every sigma in the grid (the noise is drawn at unit
    scale and multiplied by sigma, so columns differ only in noise magnitude).
    Pairing removes column-to-column sampling noise from the trend, which is
    the quantity of interest; unpaired seeds would need far more than 50 seeds
    to resolve it.

    Origins follow the given layout rule scaled by origin_scale about the
    coordinate origin.  The default (grid, scale 0.1) puts the lattice spacing
    near sigma=0.01, so the smallest sigma sees the most confusable geometry
    and the worst-ratio trend decays across the default grid
    {0.01, 0.03, 0.1, 0.3, 1}.  At scale 1.0 the decay would start only past
    sigma=0.1.  n is capped by the exact solver (3 <= n <= 20).  Every
    argument is checked before the first row runs.
    """
    if not 3 <= n <= HELD_KARP_MAX_N:
        raise ValueError(
            f"ratio experiment needs 3 <= n <= {HELD_KARP_MAX_N} (a tour, and the exact "
            f"optimum), got n={n}"
        )
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    _check_origins(origins, n, 2)
    _check_pivot(pivot)
    _check_stopping(eps)
    if len(sigma_grid) == 0:
        raise ValueError("ratio experiment needs at least one sigma")
    if not (math.isfinite(origin_scale) and origin_scale > 0.0):
        raise ValueError(f"origin_scale must be finite and positive, got {origin_scale}")
    for sigma in sigma_grid:
        _check_sigma(sigma)
    rows = []
    row_id = 0
    for ci, sigma in enumerate(sigma_grid):
        for si in range(seeds):
            inst_seed = task_seed(base_seed, 0, si)
            est_seed = task_seed(base_seed, 1, si)
            origins_arr = make_origins(origins, n, 2, inst_seed) * origin_scale
            inst = perturb(origins_arr, sigma, inst_seed)
            worst = estimate_two_opt_max(
                inst, Metric.EUCLIDEAN, restarts=restarts, pivot=pivot, eps=eps, seed=est_seed
            )
            opt = held_karp(inst, Metric.EUCLIDEAN).length
            rows.append({
                "row_id": row_id, "experiment": "ratio", "config_index": ci,
                "seed_index": si, "seed": inst_seed, "n": n, "dim": 2,
                "sigma": sigma, "metric": "l2", "pivot": pivot,
                "init": "random", "origins": origins, "eps": eps,
                "restarts": restarts, "two_opt_max": worst, "optimum": opt,
                "ratio": _ratio(worst, opt),
            })
            row_id += 1
    return rows


RATIO_COLUMNS = [c for c in _ID_COLUMNS if c not in ("p", "t")] + ["two_opt_max", "optimum", "ratio"]


# ---------------------------------------------------------------------------
# verification suites


@dataclasses.dataclass
class VerifyCheck:
    name: str
    statistic: float
    bound: float
    slack: float
    passed: bool


@dataclasses.dataclass
class VerifyReport:
    suite: str
    samples: int
    seed: int
    checks: list[VerifyCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, statistic: float, bound: float, slack: float = 0.0) -> VerifyCheck:
    """The pass rule of every bounded check: statistic <= bound + slack."""
    return VerifyCheck(name, statistic, bound, slack, bool(statistic <= bound + slack))


def _mc_slack(phat: float, samples: float) -> float:
    """Three standard errors of a frequency phat over ``samples`` draws."""
    var = max(phat * (1.0 - phat), 1.0 / samples)
    return 3.0 * math.sqrt(var / samples)


def _suite_ball(samples: int, seed: int) -> list[VerifyCheck]:
    checks = []
    for k, (d, sigma, eps, off) in enumerate([(1, 1.0, 0.5, 0.0), (2, 1.0, 0.5, 0.0),
                                              (3, 0.5, 0.2, 0.3)]):
        freq = mc_ball_mass(d, sigma, eps, samples, seed + k, center=[off] + [0.0] * (d - 1))
        checks.append(_check(f"ball d={d} sigma={sigma} eps={eps} offset={off}",
                             freq, (eps / sigma) ** d, _mc_slack(freq, samples)))
    return checks


def _suite_line(samples: int, seed: int) -> list[VerifyCheck]:
    shifted = ([0.2, 0.0, 0.0], [0.2, 1.0, 0.0])
    checks = []
    for k, (d, sigma, eps, line) in enumerate([(2, 1.0, 0.1, None), (3, 1.0, 0.3, None),
                                               (3, 0.5, 0.1, shifted)]):
        a, b = line or (None, None)
        freq = mc_line_closeness(d, sigma, eps, samples, seed + k, a=a, b=b)
        name = f"line d={d} sigma={sigma} eps={eps} axis={'shifted' if line else 'mean'}"
        checks.append(_check(name, freq, (eps / sigma) ** (d - 1), _mc_slack(freq, samples)))
    return checks


def _suite_dominance(samples: int, seed: int) -> list[VerifyCheck]:
    checks = []
    for k, (d, sigma, mu) in enumerate([(2, 1.0, [1.0, 0.0]), (3, 1.0, [0.5, 0.0, 0.0]),
                                        (2, 0.5, [1.5, 0.0])]):
        sample = mc_dominance(d, sigma, mu, samples, seed + k)
        qs = np.percentile(np.concatenate([sample.a, sample.b]), np.arange(5, 100, 5))
        fa, fb = sample.cdf_a(qs), sample.cdf_b(qs)
        worst = int(np.argmax(fb - fa))
        # a difference of two independent frequencies: twice the variance of one
        checks.append(_check(f"dominance d={d} sigma={sigma} |mu|={np.linalg.norm(mu):g}",
                             float(fb[worst] - fa[worst]), 0.0,
                             _mc_slack(0.5 * (fa[worst] + fb[worst]), samples / 2)))
    return checks


def _suite_tail(samples: int, seed: int) -> list[VerifyCheck]:
    checks = []
    for k, (d, sigma, t) in enumerate([(1, 1.0, 3.0), (2, 1.0, 3.0), (2, 1.0, 5.0)]):
        threshold, bound = chi_square_tail(d, sigma, t)
        z = _gaussian_batch(np.random.default_rng(seed + k), samples, d, sigma)
        freq = float(np.mean(np.einsum("ij,ij->i", z, z) >= threshold * threshold))
        checks.append(_check(f"tail d={d} sigma={sigma} t={t:g}", freq, bound,
                             _mc_slack(freq, samples)))
    return checks


def _suite_chi(samples: int, seed: int) -> list[VerifyCheck]:
    from scipy.integrate import quad  # it loads scipy.optimize, so only where a suite integrates
    checks = []
    for d in range(1, 7):
        total, _ = quad(lambda x: chi_pdf(x, d, 1.3), 0.0, 26.0)
        checks.append(_check(f"chi normalization d={d} sigma=1.3", abs(total - 1.0), 1e-8))
    # d = 1, 2, 3 against the textbook half-normal / Rayleigh / Maxwell forms
    xs = np.linspace(0.05, 6.0, 40)
    for d, sigma, reference in [
        (1, 0.7, lambda x, s: math.sqrt(2.0 / math.pi) / s * np.exp(-(x / s) ** 2 / 2.0)),
        (2, 1.1, lambda x, s: x / s**2 * np.exp(-(x / s) ** 2 / 2.0)),
        (3, 0.9, lambda x, s: math.sqrt(2.0 / math.pi) * x**2 / s**3 * np.exp(-(x / s) ** 2 / 2.0)),
    ]:
        ref = reference(xs, sigma)
        rel = float(np.max(np.abs(chi_pdf(xs, d, sigma) - ref) / ref))
        checks.append(_check(f"chi closed form d={d} sigma={sigma}", rel, 1e-10))
    if samples > 0:
        # the empirical CDF at x = sigma against the integrated density
        d, sigma = 3, 0.8
        z = _gaussian_batch(np.random.default_rng(seed), samples, d, sigma)
        freq = float(np.mean(np.sqrt(np.einsum("ij,ij->i", z, z)) <= sigma))
        cdf_true, _ = quad(lambda x: chi_pdf(x, d, sigma), 0.0, sigma)
        checks.append(_check(f"chi empirical cdf d={d} sigma={sigma} x={sigma}",
                             abs(freq - cdf_true), 0.0, _mc_slack(freq, samples)))
    return checks


def _suite_integral(samples: int, seed: int) -> list[VerifyCheck]:
    from scipy.integrate import quad
    checks = []
    for d in range(2, 13):
        sigma = 1.0 if d % 2 == 0 else 0.7
        for c in range(1, min(d, 3)):  # c in {1, 2} with c < d
            closed = chi_inverse_moment(d, c, sigma)
            numeric, _ = quad(
                lambda x: chi_pdf(x, d, sigma) * x ** (-c), 0.0, 30.0 * sigma,
                points=[sigma * 1e-6, sigma],
            )
            checks.append(_check(f"inverse moment d={d} c={c} sigma={sigma}",
                                 abs(closed - numeric) / closed, 1e-6))
    if samples > 0:
        # replacing |mean-shifted| norms by centered chi is pessimistic for
        # any decreasing positive h; spot-check h(x) = 1/x
        d, sigma, mu = 3, 1.0, np.array([1.0, 0.0, 0.0])
        b = _gaussian_batch(np.random.default_rng(seed), samples, d, sigma, mu)
        inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", b, b))
        checks.append(_check(f"inverse-moment dominance d={d} c=1 |mu|=1", float(inv.mean()),
                             chi_inverse_moment(d, 1, sigma),
                             3.0 * float(inv.std(ddof=1)) / math.sqrt(samples)))
    return checks


def _suite_linked(runs: int, seed: int) -> list[VerifyCheck]:
    sizes = [30, 40, 50, 60]
    checks = []
    for k in range(runs):
        n = sizes[k % len(sizes)]
        run_seed = task_seed(seed, 0, k)
        origins = make_origins("uniform", n, 2, run_seed)
        inst = perturb(origins, 0.3, run_seed)
        rec = run_two_opt(inst, Metric.EUCLIDEAN, init="random", pivot="first", seed=run_seed)
        count, _ = count_disjoint_linked_pairs(rec.changes, n=n)
        bound = linked_pair_bound(rec.iterations, n)
        checks.append(VerifyCheck(
            name=f"linked run {k} n={n} t={rec.iterations}",
            statistic=float(count), bound=float(bound), slack=0.0,
            passed=count >= bound,
        ))
    return checks


VERIFY_SUITES = {
    "ball": (_suite_ball, 10**6),
    "line": (_suite_line, 10**6),
    "dominance": (_suite_dominance, 10**6),
    "tail": (_suite_tail, 10**6),
    "chi": (_suite_chi, 10**6),
    "integral": (_suite_integral, 10**6),
    "linked": (_suite_linked, 20),
}


def verify_suite(name: str, samples: int | None = None, seed: int = 0) -> VerifyReport:
    """Run one verification suite.

    ``samples`` defaults per suite (10^6 Monte-Carlo samples; 20 recorded
    runs for "linked").  The MC suites compare an empirical frequency
    against its closed-form bound plus three standard errors; the
    deterministic checks ("chi" normalization/closed forms, "integral"
    quadrature) use fixed tolerances and ignore the sample count, except
    that passing samples > 0 keeps their Monte-Carlo spot checks enabled.
    """
    try:
        fn, default_samples = VERIFY_SUITES[name]
    except KeyError:
        names = ", ".join(sorted(VERIFY_SUITES))
        raise ValueError(f"unknown verify suite {name!r} (expected one of: {names})") from None
    m = default_samples if samples is None else samples
    if m < 0:
        raise ValueError(f"samples must be >= 0, got {m}")
    if m == 0 and name not in ("chi", "integral"):
        raise ValueError(f"suite {name!r} is purely Monte-Carlo; samples must be >= 1")
    checks = fn(m, seed)
    return VerifyReport(suite=name, samples=m, seed=seed, checks=checks)
