"""Spans around the public functions of each liquidbin layer.

The benchmark never edits the package: a traced round replaces each
listed function by a wrapper in every liquidbin module that holds a
reference to it (so `regions.fixed_point_solve`, `cyclic.find_region`,
`ibm.classify` and the like are caught too), and puts the originals back
when the round ends.  Each span records its parent, so self time is the
span's duration minus the durations of its direct children.

Work done in `--jobs` worker processes is invisible here: the workers
start from a fork of the parent and their spans die with them, so the
parent only sees the time it waited.
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import sys
from collections import defaultdict

LAYERS = {
    "combinatorics": ("enumerate_dc", "graph_index", "regions_adjacent"),
    "stationary": ("fixed_point_solve",),
    "regions": ("classify", "solve_system", "in_region_report", "sweep", "find_region"),
    "dynamics": ("evolve_bins", "step_cars"),
    "ibm": ("simulate_ibm", "hydrolimit_check"),
    "cyclic": ("conjecture_probe", "circular_extensions", "jump_order"),
    "cli": ("run",),
}

HORIZONS = (200, 400, 800, 1600, 3200)
IBM_STEPS = {"1e5": 10**5, "1e6": 10**6, "1e7": 10**7}
CLASSIFY_NS = range(3, 9)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# What a span keeps of its call besides the times; a note that cannot be
# read (a later signature or return type) is dropped, not fatal.
NOTES = {
    "stationary.fixed_point_solve": lambda a, k, out: {"iterations": out.iterations},
    "regions.classify": lambda a, k, out: {"n": _arg(a, k, 0, "params").n},
    "regions.sweep": lambda a, k, out: {"points": len(out)},
    "dynamics.evolve_bins": lambda a, k, out: {
        "events": len(out[1]), "horizon": float(_arg(a, k, 2, "t"))},
    "dynamics.step_cars": lambda a, k, out: {
        "events": len(out[1]), "horizon": float(_arg(a, k, 2, "t"))},
    "ibm.simulate_ibm": lambda a, k, out: {"steps": int(_arg(a, k, 1, "steps"))},
    "cyclic.conjecture_probe": lambda a, k, out: {
        "samples": out.samples, "hits": out.hits, "skipped": out.skipped},
    "cyclic.circular_extensions": lambda a, k, out: {"count": len(out)},
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    extra = {
        "stationary.fixed_point_solve": [("iterations", "count", "lower")],
        "regions.sweep": [("points_per_s", "1/s", "higher")],
        "dynamics.evolve_bins": [("events", "count", "higher"), ("horizon_exponent", "ratio", "lower")]
        + [(f"events_per_s_at_h{h}", "1/s", "higher") for h in HORIZONS],
        "ibm.simulate_ibm": [("steps", "count", "higher")]
        + [(f"steps_per_s_at_{tag}", "1/s", "higher") for tag in IBM_STEPS],
        "cyclic.conjecture_probe": [
            ("samples", "count", "higher"), ("hits", "count", "higher"), ("skipped", "count", "lower")],
        "cyclic.circular_extensions": [("count", "count", "higher")],
    }
    extra["dynamics.step_cars"] = extra["dynamics.evolve_bins"]
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
            out.extend((f"{name}.{suffix}", unit, better) for suffix, unit, better in extra.get(name, []))
    out.append(("regions.candidates_per_classify", "ratio", "lower"))
    out.extend((f"regions.classify.ms_at_n{n}", "ms", "lower") for n in CLASSIFY_NS)
    out.append(("cyclic.probe_hit_ratio", "ratio", "higher"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.spans_per_round", "count", "lower"))
    return out


class Tracer:
    """Installs span wrappers for one round at a time and keeps the spans,
    timed by `clock` (the meter's clock, which stops during its passes)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.rounds: list[list[tuple]] = []
        self._spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            out = None
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = self.clock()
                stack.pop()
                info = None
                if note is not None and out is not None:
                    try:
                        info = note(args, kwargs, out)
                    except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                        info = None
                spans.append((sid, parent, name, t0, t1, info))

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "liquidbin" or key.startswith("liquidbin.")]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"liquidbin.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.rounds.append(list(self._spans))
        self._spans.clear()

    def write(self, path, t_origin: float) -> None:
        """Spans as JSON lines: round, id, parent id, name, start and end
        in seconds of the clock since t_origin, and the call's note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for r, spans in enumerate(self.rounds):
                for sid, parent, name, t0, t1, info in spans:
                    fh.write(json.dumps([r, sid, parent, name, round(t0 - t_origin, 9),
                                         round(t1 - t_origin, 9), info]) + "\n")

    def metrics(self, overhead_s: float, scales: list[float]) -> dict[str, float]:
        """Per-layer metrics, as means over the traced rounds (counts and
        self times) or pooled over them (rates, ratios and medians); the
        durations of round i are multiplied by scales[i]."""
        k = max(1, len(self.rounds))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        notes = defaultdict(list)  # name -> [(duration, info)]
        inside_classify = 0
        for spans, scale in zip(self.rounds, scales):
            names = {sid: name for sid, _, name, _, _, _ in spans}
            child_time = defaultdict(float)
            for sid, parent, name, t0, t1, info in spans:
                child_time[parent] += (t1 - t0) * scale
            for sid, parent, name, t0, t1, info in spans:
                calls[name] += 1
                self_s[name] += (t1 - t0) * scale - child_time[sid]
                if info is not None:
                    notes[name].append(((t1 - t0) * scale, info))
                if name == "regions.solve_system" and names.get(parent) == "regions.classify":
                    inside_classify += 1

        def total(name, key):
            return sum(info.get(key, 0) for _, info in notes[name])

        out: dict[str, float] = {}
        for metric, _, _ in per_layer_names():
            out[metric] = 0.0
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls[name] / k
                out[f"{name}.self_s"] = self_s[name] / k
        out["stationary.fixed_point_solve.iterations"] = total("stationary.fixed_point_solve", "iterations") / k
        sweeps = notes["regions.sweep"]
        if sweeps:
            out["regions.sweep.points_per_s"] = (
                sum(info["points"] for _, info in sweeps) / sum(d for d, _ in sweeps))
        if calls["regions.classify"]:
            out["regions.candidates_per_classify"] = inside_classify / calls["regions.classify"]
        for n in CLASSIFY_NS:
            times = [d for d, info in notes["regions.classify"] if info["n"] == n]
            if times:
                out[f"regions.classify.ms_at_n{n}"] = 1e3 * statistics.median(times)
        for sim in ("dynamics.evolve_bins", "dynamics.step_cars"):
            out[f"{sim}.events"] = total(sim, "events") / k
            points = []
            for h in HORIZONS:
                runs = [(d, info["events"]) for d, info in notes[sim] if info["horizon"] == h]
                if runs:
                    elapsed = sum(d for d, _ in runs)
                    out[f"{sim}.events_per_s_at_h{h}"] = sum(e for _, e in runs) / elapsed
                    points.append((math.log(h), math.log(elapsed / len(runs))))
            if len(points) >= 2:
                out[f"{sim}.horizon_exponent"] = _slope(points)
        out["ibm.simulate_ibm.steps"] = total("ibm.simulate_ibm", "steps") / k
        for tag, steps in IBM_STEPS.items():
            runs = [d for d, info in notes["ibm.simulate_ibm"] if info["steps"] == steps]
            if runs:
                out[f"ibm.simulate_ibm.steps_per_s_at_{tag}"] = steps * len(runs) / sum(runs)
        for key in ("samples", "hits", "skipped"):
            out[f"cyclic.conjecture_probe.{key}"] = total("cyclic.conjecture_probe", key) / k
        samples = total("cyclic.conjecture_probe", "samples")
        if samples:
            out["cyclic.probe_hit_ratio"] = total("cyclic.conjecture_probe", "hits") / samples
        out["cyclic.circular_extensions.count"] = total("cyclic.circular_extensions", "count") / k
        out["trace.overhead_s"] = overhead_s
        out["trace.spans_per_round"] = sum(len(spans) for spans in self.rounds) / k
        return out


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of y on x."""
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)
