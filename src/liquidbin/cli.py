"""Command-line front end.

Single-shot commands print JSON to stdout; sweeps, traces and tables go
to CSV files.  Exit codes: 0 success, 2 invalid input, 3 wall-ambiguous
result in floating-point mode.  Rationals are accepted as "9/8" or as
decimals (parsed exactly under --exact) and rendered as "num/den".
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import partial

from .combinatorics import DCGraph, dc_to_dyck, enumerate_dc, graph_index, regions_adjacent
from .cyclic import (
    DisconnectedRegionError,
    WallTieError,
    circular_extensions,
    conjecture_probe,
    jump_order,
    zprime_chains,
)
from .dynamics import BinConfig, evolve_bins
from .ibm import hydrolimit_check
from ._parallel import parallel_map, spawn_seeds
from .params import Params, ParamsError, format_number, parse_number
from .regions import SweepGrid, classify, sweep
from .stationary import ConvergenceError, fixed_point_solve

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_WALL = 3


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return format_number(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(_jsonify(v) for v in obj)
    return obj


def _emit(obj) -> None:
    print(json.dumps(_jsonify(obj)))


def _add_params_args(sp: argparse.ArgumentParser, tol_default: float) -> None:
    sp.add_argument("--a", required=True, help="comma-separated thresholds, e.g. 1.5,2.5")
    sp.add_argument("--p", required=True, help="comma-separated rates, e.g. 0.5,1.5")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    group.add_argument("--tol", type=float, default=tol_default, help="relative tolerance (float mode)")


def _params_from(args) -> Params:
    return Params.parse(args.a.split(","), args.p.split(","), args.exact)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _fmt(x) -> object:
    return format_number(x) if isinstance(x, Fraction) else x


def _cmd_simulate(args) -> int:
    with open(args.params) as fh:
        obj = json.load(fh)
    params = Params.from_json_dict(obj, exact=args.exact)
    bins_obj = obj.get("bins")
    if not isinstance(bins_obj, dict):
        raise ParamsError('params file needs a "bins" object {"front": int, "volumes": [...]}')
    volumes = tuple(
        parse_number(str(v), args.exact) for v in bins_obj["volumes"]
    )
    x0 = BinConfig(front=int(bins_obj["front"]), volumes=volumes)
    t = parse_number(args.t, args.exact)
    x1, log = evolve_bins(x0, params, t)
    if args.trace:
        _write_csv(
            args.trace,
            ["time", "kind", "index", "location"],
            [[_fmt(ev.time), ev.kind, ev.index, _fmt(ev.location)] for ev in log],
        )
    _emit({"front": x1.front, "volumes": list(x1.volumes), "events": len(log)})
    return EXIT_OK


def _cmd_speed(args) -> int:
    params = _params_from(args)
    if args.exact:
        report = classify(params)
        # closed form, no iteration: exact, so the certified error is 0
        _emit(
            {
                "z": list(report.z),
                "speed": report.speed,
                "iterations": None,
                "certified_error": Fraction(0),
            }
        )
        return EXIT_OK
    rep = fixed_point_solve(params, args.tol)
    _emit(
        {
            "z": list(rep.profile.z),
            "speed": rep.profile.speed,
            "iterations": rep.iterations,
            "certified_error": rep.certified_error,
        }
    )
    return EXIT_OK


def _report_json(report) -> dict:
    return {
        "n": report.graph.n,
        "graph_id": graph_index(report.graph),
        "edges": [list(e) for e in report.graph.sorted_edges],
        "dyck": report.dyck.word,
        "z": list(report.z),
        "speed": report.speed,
        "verified": report.verified,
        "boundary_flags": [list(e) for e in sorted(report.boundary_flags)],
        "ambiguous": report.ambiguous,
        "finite_time_absorption": report.finite_time_absorption,
    }


def _cmd_classify(args) -> int:
    params = _params_from(args)
    report = classify(params, tol=args.tol)
    _emit(_report_json(report))
    return EXIT_WALL if report.ambiguous else EXIT_OK


def _parse_range(token: str, exact: bool) -> tuple[str, list]:
    name, _, spec = token.partition("=")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParamsError(f"vary spec {token!r} must look like name=start:stop:step")
    start, stop, step = (parse_number(s, exact) for s in parts)
    if not step > 0:
        raise ParamsError(f"vary step must be positive in {token!r}")
    values = []
    v = start
    while v <= stop + step / 2:
        values.append(v)
        v = v + step
    return name.strip(), values


def _cmd_sweep(args) -> int:
    fixed: dict[str, object] = {}
    for tok in args.fixed or []:
        for item in tok.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ParamsError(f"fixed spec {item!r} must look like name=value")
            fixed[name.strip()] = value.strip()
    axes = [_parse_range(tok, args.exact) for chunk in (args.vary or []) for tok in chunk.split(",")]
    names = set(fixed) | {n for n, _ in axes}
    n = max(int(name[1:]) for name in names if name[1:].isdigit())
    grid = SweepGrid(n=n, fixed=fixed, axes=axes)
    records = sweep(grid, exact=args.exact, tol=args.tol, jobs=args.jobs)
    axis_names = [name for name, _ in axes]
    rows = [
        [_fmt(dict(rec.coords)[name]) for name in axis_names]
        + [
            rec.graph_id if rec.graph_id is not None else "",
            rec.dyck,
            _fmt(rec.speed) if rec.speed is not None else "",
            int(rec.on_wall),
            rec.error,
        ]
        for rec in records
    ]
    _write_csv(args.out, axis_names + ["graph_id", "dyck", "speed", "on_wall", "error"], rows)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    graphs = enumerate_dc(args.n)
    rows = [
        [i, dc_to_dyck(g).word, g.n, json.dumps([list(e) for e in g.sorted_edges])]
        for i, g in enumerate(graphs)
    ]
    _write_csv(args.out, ["graph_id", "dyck", "n", "edges"], rows)
    return EXIT_OK


def _cmd_adjacency(args) -> int:
    graphs = enumerate_dc(args.n)
    rows = []
    for i, g1 in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            adj = regions_adjacent(g1, graphs[j])
            rows.append(
                [
                    i,
                    dc_to_dyck(g1).word,
                    j,
                    dc_to_dyck(graphs[j]).word,
                    int(adj.adjacent),
                    adj.codim if adj.codim is not None else "",
                ]
            )
    _write_csv(args.out, ["id1", "dyck1", "id2", "dyck2", "adjacent", "codim"], rows)
    return EXIT_OK


def _cmd_cyclic(args) -> int:
    params = _params_from(args)
    order = jump_order(params, tol=args.tol, method=args.method)
    _emit({"order": list(order.order)})
    return EXIT_OK


def _cmd_extensions(args) -> int:
    with open(args.graph) as fh:
        g = DCGraph.from_json_dict(json.load(fh))
    exts = circular_extensions(g)
    _emit(
        {
            "n": g.n,
            "edges": [list(e) for e in g.sorted_edges],
            "chains": [list(c.entries) for c in zprime_chains(g)],
            "count": len(exts),
            "extensions": [list(z.order) for z in exts],
        }
    )
    return EXIT_OK


def _probe_one(budget: int, task: tuple[DCGraph, int]):
    g, seed = task
    return conjecture_probe(g, budget, seed)


def _cmd_conjecture(args) -> int:
    from .combinatorics import connected_component_of_one

    graphs = [g for g in enumerate_dc(args.n) if connected_component_of_one(g).n == args.n]
    tasks = list(zip(graphs, spawn_seeds(args.seed, len(graphs))))
    reports = parallel_map(partial(_probe_one, args.budget), tasks, args.jobs)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "budget": args.budget,
        "graphs": [r.to_json_dict() for r in reports],
        "all_covered": all(r.covered for r in reports),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(_jsonify(payload), fh, indent=2)
    _emit(payload)
    return EXIT_OK


def _cmd_ibm(args) -> int:
    params = _params_from(args)
    s_values = [parse_number(tok, args.exact) for tok in args.s.split(",")]
    summary = hydrolimit_check(params, s_values, args.steps, args.seed, jobs=args.jobs)
    rows = [
        [
            _fmt(row.s),
            ";".join(f"{k}:{w:.12g}" for k, w in zip(row.atoms.support, row.atoms.weights)),
            row.v_hat,
            row.ci95,
            row.s_times_v,
            row.liquid_speed,
            row.gap,
        ]
        for row in summary.rows
    ]
    _write_csv(
        args.out,
        ["s", "atoms", "v_hat", "ci95", "s_times_v", "liquid_speed", "gap"],
        rows,
    )
    if args.out:
        _emit(
            {
                "rows": len(rows),
                "gap_first": summary.gap_first,
                "gap_last": summary.gap_last,
                "gap_decreased": summary.gap_decreased,
            }
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liquidbin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="advance a bin configuration, log cursor jumps")
    sp.add_argument("--params", required=True, help='JSON file {"a","p","bins"}')
    sp.add_argument("--t", required=True, help="duration")
    sp.add_argument("--trace", help="CSV path for the event log")
    sp.add_argument("--exact", action="store_true")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("speed", help="stationary sojourn vector and front speed")
    _add_params_args(sp, tol_default=1e-12)
    sp.set_defaults(fn=_cmd_speed)

    sp = sub.add_parser("classify", help="region of the parameters")
    _add_params_args(sp, tol_default=1e-9)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("sweep", help="classify over a parameter grid")
    sp.add_argument("--fixed", action="append", help="name=value (value may link an axis: p2=1-p1)")
    sp.add_argument("--vary", action="append", required=True, help="name=start:stop:step")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("enumerate", help="all region graphs for a given size")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("adjacency", help="pairwise region adjacency table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_adjacency)

    sp = sub.add_parser("cyclic", help="cyclic order of cursor jumps")
    _add_params_args(sp, tol_default=1e-9)
    sp.add_argument("--method", choices=["simulate", "phases"], default="simulate")
    sp.set_defaults(fn=_cmd_cyclic)

    sp = sub.add_parser("extensions", help="circular extensions of a graph's jump order")
    sp.add_argument("--graph", required=True, help='JSON file {"n": ..., "edges": [[i,j],...]}')
    sp.set_defaults(fn=_cmd_extensions)

    sp = sub.add_parser("conjecture", help="sample coverage of jump-order fibers")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=_cmd_conjecture)

    sp = sub.add_parser("ibm", help="stochastic bin-model speeds against the deterministic limit")
    sp.add_argument("--a", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--s", required=True, help="comma-separated scales")
    sp.add_argument("--steps", type=int, default=1000000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=_cmd_ibm)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except WallTieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if getattr(args, "exact", False) else EXIT_WALL
    except (ParamsError, DisconnectedRegionError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
