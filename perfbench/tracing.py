"""Span tracing for the benchmark's traced run, from outside the package.

``Tracer`` replaces each public function named in ``LAYERS`` by a wrapper at
every loaded module attribute of the package that refers to it (for example
``harness.run_two_opt`` and ``exact.run_two_opt``), records one span per call
and restores the originals on exit.  Spans stay in memory until ``write``.

A span's self time is its duration minus the union of its children's
intervals; its CPU time is the thread CPU it used minus that of its children
on the same thread, capped at its self time; ``wait_s = self_s - cpu_s`` is
self time spent off CPU, for example waiting for the interpreter lock.  A
span opened on a sweep's pool thread takes the enclosing ``run_sweep`` span
as its parent.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
import sys
import threading
import time

LAYERS = {
    "geometry": ("pairwise_distances", "vec_dist"),
    "stochastic": ("make_origins", "perturb"),
    "tour": ("run_two_opt", "initial_tour", "min_improvement",
             "count_disjoint_linked_pairs", "certify_two_optimality"),
    "exact": ("held_karp", "mst_length", "estimate_two_opt_max"),
    "layered": ("build_layered", "build_long_tour", "check_containers"),
    "harness": ("run_sweep", "ratio_experiment", "write_csv"),
}

# Named extras beside calls / self_s / cpu_s / wait_s: (suffix, unit, better).
EXTRAS = {
    "geometry.pairwise_distances": [("mbytes", "MB", "lower")],
    "tour.run_two_opt": [("iterations", "count", "lower"), ("scans", "count", "lower"),
                         ("ms_per_scan", "ms", "lower"), ("p50_ms", "ms", "lower"),
                         ("p90_ms", "ms", "lower")],
    "tour.certify_two_optimality": [("pairs", "count", "lower")],
    "exact.held_karp": [("p50_ms", "ms", "lower")],
    "layered.build_long_tour": [("p50_ms", "ms", "lower")],
    "harness.run_sweep": [("wall_s", "s", "lower"), ("cpu_util", "frac", "higher"),
                          ("speedup_vs_1", "x", "higher")],
    "harness.write_csv": [("bytes", "B", "lower")],
}

BENCH_WIDE = [("setup.import_s", "s", "lower"), ("trace.overhead_frac", "frac", "lower")]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, names in LAYERS.items():
        for fn in names:
            base = f"{layer}.{fn}"
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower"),
                    (f"{base}.cpu_s", "s", "lower"), (f"{base}.wait_s", "s", "lower")]
            out += [(f"{base}.{suffix}", unit, better) for suffix, unit, better in EXTRAS.get(base, [])]
    return out + BENCH_WIDE


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _certified_pairs(args, kwargs, result) -> dict:
    tour = _arg(args, kwargs, 1, "tour")
    n = len(getattr(tour, "order", tour))
    return {"pairs": n * (n - 3) // 2}


# Work counted from a call's arguments and result, per traced function.
_COUNTERS = {
    "geometry.pairwise_distances": lambda a, k, r: {"bytes": r.nbytes},
    "tour.run_two_opt": lambda a, k, r: {"iterations": r.iterations},
    "tour.certify_two_optimality": _certified_pairs,
    "harness.write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


def _percentile_ms(spans: list, q: int) -> float:
    ms = [1000.0 * (s.end - s.start) for s in spans]
    if len(ms) < 2:
        return ms[0] if ms else 0.0
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu_start", "cpu_end", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.counts = None


class Tracer:
    """Context manager that traces the functions in LAYERS of one package."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._sweep: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        prefix = self.package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{prefix}.{layer}"]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if vars(module).get(fn) is original:
                        setattr(module, fn, wrapper)
                        self._patched.append((module, fn, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, fn, original in reversed(self._patched):
            setattr(module, fn, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_sweep = name == "harness.run_sweep"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name, stack[-1] if stack else self._sweep)
            self.spans.append(span)
            stack.append(span)
            if is_sweep:
                outer, self._sweep = self._sweep, span
                proc_start = time.process_time()
            span.cpu_start = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.thread_time()
                stack.pop()
                if is_sweep:
                    self._sweep = outer
            if is_sweep:
                width = args[1] if len(args) > 1 else kwargs.get("threads")
                span.counts = {"process_cpu": time.process_time() - proc_start, "width": width}
            elif counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _self_times(self) -> dict[int, tuple[float, float]]:
        """id(span) -> (self seconds, self thread-CPU seconds)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            kids = children.get(id(s), [])
            covered, reach = 0.0, s.start
            for k in sorted(kids, key=lambda k: k.start):
                lo, hi = max(k.start, reach), min(k.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_s = s.end - s.start - covered
            kid_cpu = sum(k.cpu_end - k.cpu_start for k in kids if k.thread == s.thread)
            # A sweep's dispatch CPU overlaps its pool-thread children, so the
            # thread CPU left after same-thread children can exceed self time.
            out[id(s)] = (self_s, min(self_s, max(0.0, s.cpu_end - s.cpu_start - kid_cpu)))
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded (bench-wide ones excluded)."""
        selfs = self._self_times()
        by_name: dict[str, list[Span]] = {f"{l}.{fn}": [] for l, names in LAYERS.items() for fn in names}
        for s in self.spans:
            by_name[s.name].append(s)
        m: dict[str, float] = {}
        for base, spans in by_name.items():
            self_s = sum(selfs[id(s)][0] for s in spans)
            cpu_s = sum(selfs[id(s)][1] for s in spans)
            m[f"{base}.calls"] = len(spans)
            m[f"{base}.self_s"] = self_s
            m[f"{base}.cpu_s"] = cpu_s
            m[f"{base}.wait_s"] = self_s - cpu_s

        def total(base, key):
            return sum(s.counts[key] for s in by_name[base] if s.counts is not None)

        m["geometry.pairwise_distances.mbytes"] = total("geometry.pairwise_distances", "bytes") / 1e6
        iterations = total("tour.run_two_opt", "iterations")
        scans = iterations + m["tour.run_two_opt.calls"]
        m["tour.run_two_opt.iterations"] = iterations
        m["tour.run_two_opt.scans"] = scans
        m["tour.run_two_opt.ms_per_scan"] = 1000.0 * m["tour.run_two_opt.self_s"] / scans if scans else 0.0
        m["tour.run_two_opt.p50_ms"] = _percentile_ms(by_name["tour.run_two_opt"], 50)
        m["tour.run_two_opt.p90_ms"] = _percentile_ms(by_name["tour.run_two_opt"], 90)
        m["tour.certify_two_optimality.pairs"] = total("tour.certify_two_optimality", "pairs")
        m["exact.held_karp.p50_ms"] = _percentile_ms(by_name["exact.held_karp"], 50)
        m["layered.build_long_tour.p50_ms"] = _percentile_ms(by_name["layered.build_long_tour"], 50)
        sweeps = by_name["harness.run_sweep"]
        wall = sum(s.end - s.start for s in sweeps)
        capacity = sum((s.end - s.start) * s.counts["width"] for s in sweeps if s.counts is not None)
        m["harness.run_sweep.wall_s"] = wall
        m["harness.run_sweep.cpu_util"] = total("harness.run_sweep", "process_cpu") / capacity if capacity else 0.0
        m["harness.write_csv.bytes"] = total("harness.write_csv", "bytes")
        return m

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent id, name, thread, start, end, thread CPU."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "thread", "start_s", "end_s", "cpu_s"])
            for k, s in enumerate(self.spans):
                parent = "" if s.parent is None else ids[id(s.parent)]
                out.writerow([k, parent, s.name, s.thread, f"{s.start - t0:.6f}",
                              f"{s.end - t0:.6f}", f"{s.cpu_end - s.cpu_start:.6f}"])
