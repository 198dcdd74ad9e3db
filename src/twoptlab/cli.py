"""Command-line interface.

Subcommands: gen, run, exact, ratio, lb (build / certify / ratio), verify,
sweep, replay, plot-data.  Exit codes: 0 success, 1 validation error (or a
sweep worker process that died), 2 assertion/verification failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor

from .exact import brute_force, held_karp, mst_length
from .geometry import Metric
from .harness import (
    RATIO_COLUMNS,
    ROW_COLUMNS,
    VERIFY_SUITES,
    VerificationError,
    _csv_lines,
    load_config,
    ratio_experiment,
    replay_row,
    run_sweep,
    verify_suite,
    write_csv,
)
from .layered import (
    LayeredInstance,
    build_layered,
    build_long_tour,
    check_containers,
)
from .stochastic import ORIGIN_RULES, Instance, _json_array, make_origins, perturb
from .tour import _INIT_RULES, PIVOTS, certify_two_optimality, run_two_opt, tour_length

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

# CSV columns kept as identifiers when melting to long format
_ID_COLUMNS = [
    "row_id", "experiment", "config_index", "seed_index", "seed", "n", "dim",
    "sigma", "metric", "pivot", "init", "origins", "eps", "p", "t", "restarts",
]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return Instance.from_json(fh.read())


def _load_layered(path: str) -> tuple[LayeredInstance, Instance]:
    with open(path, "r", encoding="utf-8") as fh:
        return LayeredInstance.from_json(fh.read())


def _cmd_gen(args) -> int:
    if args.origins.startswith("file:"):
        with open(args.origins[5:], "r", encoding="utf-8") as fh:
            origins = _json_array(json.load(fh), "origins")
        if origins.ndim != 2:
            raise ValueError("origins file must hold a JSON list of coordinate rows")
        if args.n is not None and args.n != origins.shape[0]:
            raise ValueError(
                f"--n {args.n} does not match the {origins.shape[0]} rows in the origins file"
            )
        if origins.shape[1] != args.dim:
            raise ValueError(
                f"--dim {args.dim} does not match the origins file ({origins.shape[1]} columns)"
            )
    else:
        if args.n is None:
            raise ValueError("--n is required unless origins come from a file")
        origins = make_origins(args.origins, args.n, args.dim, args.seed)
    inst = perturb(origins, args.sigma, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        inst.to_json(fh)
    return EXIT_OK


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    seed = inst.seed if args.seed is None else args.seed
    rec = run_two_opt(
        inst,
        metric=args.metric,
        init=args.init,
        pivot=args.pivot,
        eps=args.eps,
        seed=seed,
        max_iter=args.max_iter,
        keep_changes=args.record_changes,
    )
    _emit(rec.to_json(include_changes=args.record_changes), args.output)
    return EXIT_OK


def _cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    solver = held_karp if args.algo == "heldkarp" else brute_force
    result = solver(inst, args.metric)
    payload = {
        "algorithm": result.algorithm,
        "length": result.length,
        "order": [int(v) for v in result.tour.order],
        "elapsed": result.elapsed,
    }
    _emit(json.dumps(payload), args.output)
    return EXIT_OK


def _cmd_ratio(args) -> int:
    grid = [float(v) for v in args.sigma_grid.split(",") if v.strip()]
    rows = ratio_experiment(
        n=args.n,
        sigma_grid=grid,
        restarts=args.restarts,
        seeds=args.seeds,
        base_seed=args.seed,
        origins=args.origins,
        origin_scale=args.origin_scale,
    )
    write_csv(rows, args.output, RATIO_COLUMNS)
    return EXIT_OK


def _cmd_lb_build(args) -> int:
    li = build_layered(args.p, args.sigma, args.t)
    inst = li.perturbed(args.seed) if args.seed is not None else None
    with open(args.output, "w", encoding="utf-8") as fh:
        li.to_json(inst, fp=fh)
    return EXIT_OK


def _cmd_lb_certify(args) -> int:
    li, inst = _load_layered(args.instance)
    tour = build_long_tour(li, inst)
    ok, worst = check_containers(li, inst)
    violation = certify_two_optimality(inst.points, tour, Metric.EUCLIDEAN, args.eps)
    payload = {
        "certified": violation is None,
        "eps": args.eps,
        "tour_length": tour_length(tour, inst.points, Metric.EUCLIDEAN),
        "container_ok": ok,
        "worst_offset_ratio": worst,
    }
    if violation is not None:
        payload["max_violation_gain"] = violation.gain
        payload["violation_removed"] = [list(e) for e in violation.removed]
        payload["violation_added"] = [list(e) for e in violation.added]
    _emit(json.dumps(payload), args.output)
    return EXIT_OK if violation is None else EXIT_VERIFICATION


def _cmd_lb_ratio(args) -> int:
    li, inst = _load_layered(args.instance)
    tour = build_long_tour(li, inst)
    length = tour_length(tour, inst.points, Metric.EUCLIDEAN)
    mst2 = 2.0 * mst_length(inst.points, Metric.EUCLIDEAN)
    payload = {
        "tour_length": length,
        "mst2": mst2,
        "ratio_lb": length / mst2,
    }
    _emit(json.dumps(payload), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(args.suite, samples=args.samples, seed=args.seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[verify:{report.suite}] {check.name}: statistic={check.statistic:.6g} "
            f"bound={check.bound:.6g} slack={check.slack:.3g} {status}"
        )
    summary = "PASS" if report.passed else "FAIL"
    print(
        f"[verify:{report.suite}] {sum(c.passed for c in report.checks)}/"
        f"{len(report.checks)} checks passed: {summary}"
    )
    if not report.passed:
        raise VerificationError(f"verify suite {report.suite!r} failed")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = run_sweep(cfg, threads=args.threads)
    write_csv(rows, args.output, ROW_COLUMNS)
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.writelines(_csv_lines([replay_row(cfg, args.row_id)], ROW_COLUMNS))
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    import csv as csv_mod

    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        reader = csv_mod.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{args.input} is empty")
        data = list(reader)
    ids = [c for c in header if c in _ID_COLUMNS]
    values = [c for c in header if c not in _ID_COLUMNS]
    if not values:
        raise ValueError("input has no value columns to melt")
    out_rows = []
    for cells in data:
        row = dict(zip(header, cells))
        base = {c: row.get(c, "") for c in ids}
        for col in values:
            val = row.get(col, "")
            if val == "":
                continue
            melted = dict(base)
            melted["variable"] = col
            melted["value"] = val
            out_rows.append(melted)
    write_csv(out_rows, args.output, ids + ["variable", "value"])
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="twoptlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a perturbed instance")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--origins", default="uniform",
                   help=" | ".join(ORIGIN_RULES + ("file:PATH",)))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("run", help="run 2-opt on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--metric", choices=[m.value for m in Metric], default="l2")
    p.add_argument("--init", choices=list(_INIT_RULES), default="random")
    p.add_argument("--pivot", choices=PIVOTS, default="first")
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=None,
                   help="run seed (defaults to the instance seed)")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--record-changes", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("exact", help="solve an instance exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=["heldkarp", "brute"], default="heldkarp")
    p.add_argument("--metric", choices=[m.value for m in Metric], default="l2")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("ratio", help="worst-local-optimum ratio across a sigma grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma-grid", required=True, help="comma-separated sigmas")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--origins", choices=ORIGIN_RULES, default="grid")
    p.add_argument("--origin-scale", type=float, default=0.1,
                   help="multiply the origin layout by this factor (default 0.1)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_ratio)

    p = sub.add_parser("lb", help="layered lower-bound instance tools")
    lb_sub = p.add_subparsers(dest="lb_command", required=True)

    q = lb_sub.add_parser("build", help="construct a layered instance")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--t", type=int, default=None)
    q.add_argument("--sigma", type=float, default=0.0)
    q.add_argument("--seed", type=int, default=None,
                   help="also perturb the stored points with this seed")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(handler=_cmd_lb_build)

    q = lb_sub.add_parser("certify", help="check the designated tour is 2-optimal")
    q.add_argument("--instance", required=True)
    q.add_argument("--eps", type=float, default=1e-12)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(handler=_cmd_lb_certify)

    q = lb_sub.add_parser("ratio", help="certified approximation-ratio lower bound")
    q.add_argument("--instance", required=True)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(handler=_cmd_lb_ratio)

    p = sub.add_parser("verify", help="run a Monte-Carlo verification suite")
    p.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="run a sweep config into a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("replay", help="recompute one sweep row from its config")
    p.add_argument("--row-id", type=int, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_replay)

    p = sub.add_parser("plot-data", help="melt a sweep CSV into tidy long format")
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
