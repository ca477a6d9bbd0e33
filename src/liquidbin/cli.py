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
import math
import sys
from fractions import Fraction
from functools import partial
from typing import Iterator

from .combinatorics import (
    DCGraph,
    connected_component_of_one,
    dc_graphs,
    dc_to_dyck,
    enumerate_dc,
    graph_index,
    regions_adjacent,
)
from .cyclic import (
    DisconnectedRegionError,
    WallTieError,
    check_extension_cap,
    circular_extensions,
    conjecture_probe,
    jump_order,
    zprime_chains,
)
from .dynamics import BinConfig, evolve_bins
from .ibm import hydrolimit_check
from ._parallel import parallel_map, spawn_seeds
from .params import Number, Params, ParamsError, format_number, parse_number
from .regions import SweepGrid, classify, sweep
from .stationary import stationary_profile

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_WALL = 3
MAX_SWEEP_POINTS = 10**6  # checked before any --vary value is built


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return format_number(obj)


def _emit(obj) -> None:
    print(json.dumps(_jsonify(obj), allow_nan=False))


def _add_params_args(
    sp: argparse.ArgumentParser, tol_default: float, tol_help: str = "relative tolerance (float mode)"
) -> None:
    sp.add_argument("--a", required=True, help="comma-separated thresholds, e.g. 1.5,2.5")
    sp.add_argument("--p", required=True, help="comma-separated rates, e.g. 0.5,1.5")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    group.add_argument("--tol", type=float, default=tol_default, help=tol_help)


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


def _cmd_simulate(args) -> int:
    with open(args.params) as fh:
        obj = json.load(fh)
    params = Params.from_json_dict(obj, exact=args.exact)
    x0 = BinConfig.from_json_dict(obj.get("bins"), args.exact)
    t = parse_number(args.t, args.exact)
    x1, log = evolve_bins(x0, params, t)
    if args.trace:
        _write_csv(
            args.trace,
            ["time", "kind", "index", "location"],
            ([format_number(ev.time), ev.kind, ev.index, format_number(ev.location)] for ev in log),
        )
    _emit({"front": x1.front, "volumes": list(x1.volumes), "events": len(log)})
    return EXIT_OK


def _cmd_speed(args) -> int:
    params = _params_from(args)
    if not args.tol > 0:
        raise ValueError("tolerance must be positive")
    profile, error = stationary_profile(params)  # closed form, no iteration
    if error > args.tol:
        raise ValueError(f"certified error {float(error):.3g} exceeds --tol {args.tol:g}")
    _emit({"z": list(profile.z), "speed": profile.speed, "iterations": None, "certified_error": error})
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


def _parse_range(token: str, exact: bool) -> tuple[str, int, Iterator[Number]]:
    """The name of a --vary range, its number of values, worked out from
    start, stop and step, and its values, built as they are read."""
    name, _, spec = token.partition("=")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParamsError(f"vary spec {token!r} must look like name=start:stop:step")
    start, stop, step = (parse_number(s, exact) for s in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParamsError(f"vary start, stop and step must be finite in {token!r}")
    if not step > 0:
        raise ParamsError(f"vary step must be positive in {token!r}")
    # the k >= 0 with k step <= (stop - start)(1 + 10^-9), counted in exact
    # arithmetic on the parsed numbers: the slack keeps a stop that decimal
    # steps miss only by the rounding of their binary values (0.05:0.95:0.05
    # has 19 values), and is far below one step
    span = (Fraction(stop) - Fraction(start)) * (1 + Fraction(1, 10**9))
    count = max(0, math.floor(span / Fraction(step)) + 1)

    def values() -> Iterator[Number]:
        v = start
        for k in range(count):
            if k:
                v, prev = v + step, v
                if v == prev:  # a float step below half an ulp of v
                    raise ParamsError(f"vary step {parts[2]} does not advance past {prev!r} in {token!r}")
            yield v
    return name.strip(), count, values()


def _cmd_sweep(args) -> int:
    fixed: dict[str, object] = {}
    for tok in args.fixed or []:
        for item in tok.split(","):
            name, _, value = item.partition("=")
            if not value:
                raise ParamsError(f"fixed spec {item!r} must look like name=value")
            fixed[name.strip()] = value.strip()
    ranges = [_parse_range(tok, args.exact) for chunk in (args.vary or []) for tok in chunk.split(",")]
    if math.prod(count for _, count, _ in ranges) > MAX_SWEEP_POINTS:
        raise ParamsError(f"the --vary ranges give more than {MAX_SWEEP_POINTS} grid points, "
                          "the bound of sweep")
    axes = [(name, list(values)) for name, _, values in ranges]
    names = set(fixed) | {n for n, _ in axes}
    n = max((int(name[1:]) for name in names if name[:1] in ("a", "p") and name[1:].isdigit()), default=None)
    if n is None:
        raise ParamsError(f"sweep coordinates {sorted(names)} name no a<k> or p<k>: "
                          "they must cover exactly a1..aN and p1..pN")
    grid = SweepGrid(n=n, fixed=fixed, axes=axes)
    records = sweep(grid, exact=args.exact, tol=args.tol, jobs=args.jobs)
    axis_names = [name for name, _ in axes]
    rows = [
        [format_number(dict(rec.coords)[name]) for name in axis_names]
        + [
            rec.graph_id if rec.graph_id is not None else "",
            rec.dyck,
            format_number(rec.speed) if rec.speed is not None else "",
            int(rec.on_wall),
            rec.error,
        ]
        for rec in records
    ]
    _write_csv(args.out, axis_names + ["graph_id", "dyck", "speed", "on_wall", "error"], rows)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    # C_N rows, each built as the writer asks for it: no list of graphs
    rows = (
        [i, dc_to_dyck(g).word, g.n, json.dumps([list(e) for e in g.sorted_edges])]
        for i, g in enumerate(dc_graphs(args.n))
    )
    _write_csv(args.out, ["graph_id", "dyck", "n", "edges"], rows)
    return EXIT_OK


def _cmd_adjacency(args) -> int:
    graphs = enumerate_dc(args.n)
    words = [dc_to_dyck(g).word for g in graphs]

    # C_N (C_N - 1) / 2 rows: streamed to the writer, never held as a list
    def rows():
        for i, g1 in enumerate(graphs):
            for j in range(i + 1, len(graphs)):
                adj = regions_adjacent(g1, graphs[j])
                yield [i, words[i], j, words[j], int(adj.adjacent), "" if adj.codim is None else adj.codim]

    _write_csv(args.out, ["id1", "dyck1", "id2", "dyck2", "adjacent", "codim"], rows())
    return EXIT_OK


def _cmd_cyclic(args) -> int:
    params = _params_from(args)
    order = jump_order(params, tol=args.tol)
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
            "chains": [list(c) for c in zprime_chains(g)],
            "count": len(exts),
            "extensions": [list(z.order) for z in exts],
        }
    )
    return EXIT_OK


def _probe_one(budget: int, task: tuple[DCGraph, int]):
    g, seed = task
    return conjecture_probe(g, budget, seed)


def _cmd_conjecture(args) -> int:
    check_extension_cap(args.n)  # before the C_N graphs are built
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
            format_number(row.s),
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
    _add_params_args(sp, tol_default=1e-12,
                     tol_help="bound on the absolute error of the breakpoint times (float mode)")
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
    except (ParamsError, DisconnectedRegionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
