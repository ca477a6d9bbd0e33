"""liquidbin benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload phase-diagram --seed 1 --seconds 25 --trace 0

Run from the root of a liquidbin checkout; the package is imported from
its `src/`.  The run sets up several times (import, input generation,
warm-up) and reports the median, then repeats the workload's fixed task
in rounds for at most --seconds (at least two rounds), each round on
fresh inputs made from (seed, round).  Checks run after the timed calls
of each round.  Times are scaled to a nominal machine speed (see
speed.py).

With --trace 0 the last stdout line holds the end-to-end metrics
(setup_s, wall_s, peak_rss_mb, ops_per_s); with --trace 1 it holds the
per-layer metrics, taken from spans of every second round while the
other rounds run untraced to give the tracing overhead.  The line before
it is a report with the workload's own metrics, the error counts and the
run metadata; reports and span files are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "liquidbin"
OUT = HERE / "out"
MODULES = ("params", "combinatorics", "stationary", "dynamics", "regions", "cyclic", "ibm", "cli")
SETUP_REPEATS = 5
SETUP_PASSES = 5  # reference passes at each end of a set-up, which is short

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402  (liquidbin's only dependency; the inputs are made with it)

import tracing  # noqa: E402
from speed import Meter  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


def load_package() -> SimpleNamespace:
    """Import liquidbin afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "liquidbin" or m.startswith("liquidbin.")]:
        del sys.modules[name]
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    mods = {name: importlib.import_module(f"liquidbin.{name}") for name in MODULES}
    if Path(sys.modules["liquidbin"].__file__).resolve().parent != PACKAGE:
        raise ImportError(f"liquidbin was imported from outside {PACKAGE}")
    return SimpleNamespace(**mods)


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no liquidbin package at {PACKAGE}; run from a liquidbin checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    meter = Meter()
    try:
        return measure(args, meter)
    finally:
        meter.close()


def measure(args: argparse.Namespace, meter: Meter) -> int:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        mark = meter.start()
        meter.take_passes(SETUP_PASSES)
        lb = load_package()
        workload = WORKLOADS[args.workload](lb, args.seed, OUT)
        inputs = workload.generate(0)
        workload.warm_up(inputs)
        meter.take_passes(SETUP_PASSES)
        raw, scaled = meter.stop(mark)
        raw_setups.append(raw)
        setups.append(scaled)

    rec = Recorder(meter)
    tracer = tracing.Tracer(meter.clock) if args.trace else None
    walls = {False: [], True: []}
    traced_scales = []
    raw_walls, rates, raw_rates = [], [], []
    samples: dict[str, list] = {}
    t_start, clock_start = perf_counter(), meter.clock()
    r = 0
    while True:
        t_round = perf_counter()
        if r:
            inputs = workload.generate(r)
        traced = tracer is not None and r % 2 == 1
        raw0, scaled0 = meter.raw_s, meter.scaled_s
        if traced:
            tracer.install()
        try:
            out = workload.run_round(inputs, rec)
        finally:
            if traced:
                tracer.uninstall()
        k = (meter.scaled_s - scaled0) / (meter.raw_s - raw0)  # the round's scale factor
        workload.check(inputs, out, rec)
        walls[traced].append(out["wall_s"])
        if traced:
            traced_scales.append(k)
        else:
            raw_walls.append(out["wall_s"] / k)
            raw_rates.append(out["ops_per_s"] * k)
            rates.append(out["ops_per_s"])
            for name, values in out["samples"].items():
                samples.setdefault(name, []).extend(values)
        del out
        r += 1
        now = perf_counter()
        # At least two rounds (one traced); no round that would end past --seconds.
        if r >= 2 and (now - t_start) + (now - t_round) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls[False]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (statistics.median(rates), "1/s"),
    }
    untraced.update(workload.extra_metrics(samples))
    untraced["error_rate"] = (rec.failed / max(1, rec.attempted), "ratio")
    if tracer is None:
        metrics = {name: untraced[name] for name in ("setup_s", "wall_s", "peak_rss_mb", "ops_per_s")}
    else:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        units = {name: unit for name, unit, _ in tracing.per_layer_names()}
        metrics = {name: (value, units[name])
                   for name, value in tracer.metrics(overhead, traced_scales).items()}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path, clock_start)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": r,
        "traced_rounds": len(walls[True]),
        "round_wall_s": walls,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in untraced.items()},
        "unscaled": {"setup_s": statistics.median(raw_setups), "wall_s": statistics.median(raw_walls),
                     "ops_per_s": statistics.median(raw_rates),
                     "reference_pass_s": meter.median_pass_s()},
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.messages,
        "meta": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "setup_repeats": SETUP_REPEATS,
        },
    }
    if tracer is not None:
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["notes"] = [
            "per-layer metrics are means per traced round; rates, ratios and medians pool the traced rounds",
            "sweep --jobs 2 classifies in worker processes whose spans are not recorded: "
            "regions.sweep self time there is the parent's wait",
            "untraced metrics in this report come from the untraced rounds of this run",
        ]
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for name, (value, unit) in untraced.items():
        print(f"{args.workload:14s} {name:22s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'attempted':22s} {rec.attempted:14d} ops, failed {rec.failed}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
