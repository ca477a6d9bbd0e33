"""The four benchmark workloads.

Each workload is built from a seed, makes the inputs of round r from
(seed, r) alone, runs one round of its fixed task through the public
liquidbin API, and checks the outputs after the timed calls.  Functions
are looked up on their modules at call time, so the span wrappers of a
traced round are the ones that run.
"""
from __future__ import annotations

import csv
import math
import os
import statistics
import sys
import traceback
from fractions import Fraction
from itertools import accumulate

import numpy as np

from speed import Meter

LADDER = (200, 400, 800, 1600, 3200)


class Recorder:
    """Counts operations and failures; a failure is an operation that
    raised or a check that did not hold.  Operation times are scaled to
    the nominal machine by the meter."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Call fn, returning (result or None, scaled seconds)."""
        self.attempted += 1
        mark = self.meter.start()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and reported, the run goes on
            _, dt = self.meter.stop(mark)
            self._fail(traceback.format_exc())
            return None, dt
        return out, self.meter.stop(mark)[1]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self._fail("check failed: " + message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)
            print(message, file=sys.stderr)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _log_uniform(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k rows of N gaps then N rates, each log-uniform over [1e-2, 1e2] (the
    law of liquidbin.cyclic.sample_params), stratified: every column puts one
    value in each of k equal strata, so rounds hold alike mixes of
    ill-conditioned points and their cost varies less."""
    u = (np.stack([rng.permutation(k) for _ in range(2 * n)], axis=1) + rng.uniform(size=(k, 2 * n))) / k
    return 10.0 ** (4.0 * u - 2.0)


def _fractions(values, max_den: int) -> list[Fraction]:
    return [Fraction(v).limit_denominator(max_den) for v in values]


def _connected(lb, n: int) -> list:
    comb = lb.combinatorics
    return [g for g in comb.enumerate_dc(n) if comb.connected_component_of_one(g).n == n]


class PhaseDiagram:
    """Classification: a stream of points, a 2-D sweep and an adjacency table."""

    # A quarter of the points come from the N = 6-8 tail, weighted so that
    # the 90th latency percentile falls among the N = 7 points.
    N_MIX = {3: 15, 4: 15, 5: 15, 6: 6, 7: 6, 8: 3}
    SPEED_MIN_RATE_RATIO = 0.02  # q_1/q_N; the iteration contracts by 1 - q_1/q_N
    P1 = (0.05, 0.95, 0.05)
    A1 = (0.1, 1.0, 0.05)
    ADJ_N = 7
    ADJ_SAMPLE = 400

    def __init__(self, lb, seed: int, out_dir) -> None:
        self.lb, self.seed, self.out_dir = lb, seed, out_dir

    def generate(self, r: int) -> dict:
        Params = self.lb.params.Params
        rng = _rng(self.seed, r)
        points = []
        for n, k in self.N_MIX.items():
            for j, row in enumerate(_log_uniform(rng, k, n)):
                d, p = row[:n].tolist(), row[n:].tolist()
                if (j + r) % 4 == 3:  # one point in four is exact
                    d, p = _fractions(d, 1000), _fractions(p, 1000)
                params = Params(tuple(accumulate(d)), tuple(p))
                # speed queries go to float points: (j + r) even is never exact
                speed_query = (j + r) % 2 == 0 and p[0] / sum(p) >= self.SPEED_MIN_RATE_RATIO
                points.append((params, speed_query))
        points = [points[i] for i in rng.permutation(len(points))]
        a2 = float(rng.uniform(1.1, 1.6))
        a3 = a2 + float(rng.uniform(0.3, 1.2))
        p3 = float(rng.uniform(0.2, 2.0))
        fixed = f"a2={a2:.6g},a3={a3:.6g},p2=1-p1,p3={p3:.6g}"
        sample = rng.integers(0, self.lb.combinatorics.catalan(self.ADJ_N), size=(self.ADJ_SAMPLE, 2))
        return {"points": points, "fixed": fixed, "adj_sample": sample.tolist()}

    def warm_up(self, inputs: dict) -> None:
        # Fixed points, one per N, rather than the seed's: about 1% of
        # seeded points stall classify for up to 0.5 s, and set-up time
        # should not depend on which seed drew one.
        Params = self.lb.params.Params
        for n in self.N_MIX:
            d = [1.0 + 0.13 * i for i in range(n)]
            p = [1.0 + 0.29 * (i * 7 % n) / n for i in range(n)]
            params = Params(tuple(accumulate(d)), tuple(p))
            self.lb.regions.classify(params)
        self.lb.stationary.fixed_point_solve(params, 1e-9)

    @staticmethod
    def _axis(spec) -> str:
        return ":".join(f"{v:g}" for v in spec)

    def run_round(self, inputs: dict, rec: Recorder) -> dict:
        regions, stationary, comb, cli = (
            self.lb.regions, self.lb.stationary, self.lb.combinatorics, self.lb.cli)
        stream_s = 0.0
        results = []
        latencies_ms = []
        for params, speed_query in inputs["points"]:
            report, dt = rec.op(regions.classify, params)
            stream_s += dt
            latencies_ms.append(1e3 * dt)
            solved = None
            if speed_query:
                solved, dt = rec.op(stationary.fixed_point_solve, params, 1e-12 * (1 + params.a[-1]))
                stream_s += dt
            results.append((params, report, solved))

        path = self.out_dir / f"sweep-{os.getpid()}.csv"
        argv = ["sweep", "--fixed", inputs["fixed"], "--vary", "p1=" + self._axis(self.P1),
                "--vary", "a1=" + self._axis(self.A1), "--jobs", "2", "--out", str(path)]
        with rec.meter.paused():  # the sweep runs in two worker processes
            code, sweep_s = rec.op(cli.run, argv)

        table, adj_s = rec.op(self._adjacency_table, comb.enumerate_dc(self.ADJ_N))

        return {"wall_s": stream_s + sweep_s + adj_s, "ops_per_s": len(inputs["points"]) / stream_s,
                "samples": {"classify_ms": latencies_ms, "sweep_points_per_s": [self._grid_size() / sweep_s]},
                "results": results, "sweep": (code, path), "table": table}

    def _adjacency_table(self, graphs) -> list[list]:
        adjacent = self.lb.combinatorics.regions_adjacent
        return [[adjacent(g1, g2) for g2 in graphs[i + 1:]] for i, g1 in enumerate(graphs)]

    def _grid_size(self) -> int:
        (a, b, s), (c, d, t) = self.P1, self.A1
        return (round((b - a) / s) + 1) * (round((d - c) / t) + 1)

    def check(self, inputs: dict, out: dict, rec: Recorder) -> None:
        regions = self.lb.regions
        for params, report, solved in out["results"]:
            if report is None:
                continue
            if params.is_exact:
                rec.check(report.verified and regions.in_region(report.graph, params),
                          f"exact report not verified in its region: {params}")
            elif solved is not None and not report.ambiguous:
                # 1e-9 relative, or the solver's own certificate where that is wider
                z1 = solved.profile.z[0]
                diff = abs(report.z[0] - z1)
                rec.check(diff <= max(1e-9 * z1, solved.certified_error + 1e-12 * z1),
                          f"classify period differs from the fixed point by {diff:.3g}: {params}")
        code, path = out["sweep"]
        rec.check(code == 0, f"sweep exited with {code}")
        if path.exists():
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            path.unlink()
            rec.check(len(rows) == self._grid_size(), f"sweep wrote {len(rows)} rows, want {self._grid_size()}")
            rec.check(all(not row["error"] and row["graph_id"] for row in rows), "sweep rows with errors")
        if out["table"] is None:
            return
        comb = self.lb.combinatorics
        graphs = comb.enumerate_dc(self.ADJ_N)
        for i, j in inputs["adj_sample"]:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
            g1, g2 = graphs[i], graphs[j]
            adj = out["table"][i][j - i - 1]
            cover = comb.stanley_covers(g1, g2) or comb.stanley_covers(g2, g1)
            rec.check((adj.codim == 1) == cover, f"codimension-1 adjacency differs from a cover: {i}, {j}")
            mm = comb.adjacency_mm_condition(g1, g2) or comb.adjacency_mm_condition(g2, g1)
            rec.check(adj.adjacent == mm, f"adjacency differs from the m/M condition: {i}, {j}")

    @staticmethod
    def extra_metrics(samples: dict) -> dict:
        lat = samples["classify_ms"]
        return {"classify_p50_ms": (statistics.median(lat), "ms"),
                "classify_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
                "classify_samples": (len(lat), "count"),
                "sweep_points_per_s": (statistics.median(samples["sweep_points_per_s"]), "1/s")}


class Trajectory:
    """Bin and car simulators on seeded starts, float over a horizon ladder
    and exact over short horizons."""

    EVENTS_PER_TIME = 1.25  # rates are scaled so N cursor jumps take 1/1.25 time per period
    EXACT_HORIZONS = (20, 40, 80)

    def __init__(self, lb, seed: int, out_dir) -> None:
        self.lb, self.seed = lb, seed

    def _config(self, rng, n: int, exact: bool):
        Params, dyn = self.lb.params.Params, self.lb.dynamics
        d = rng.uniform(0.75, 1.25, size=n).tolist()
        p = rng.uniform(0.75, 1.25, size=n).tolist()
        period = self.lb.stationary.fixed_point_solve(Params(tuple(accumulate(d)), tuple(p)), 1e-10).profile.z[0]
        scale = self.EVENTS_PER_TIME * period / n
        p = [v * scale for v in p]
        vols = []
        while sum(vols) < sum(d) + 1:
            vols.append(float(rng.uniform(0.2, 1.0)))
        if exact:
            d, p, vols = _fractions(d, 8), _fractions(p, 8), _fractions(vols, 8)
        params = Params(tuple(accumulate(d)), tuple(p))
        x = dyn.BinConfig(len(vols) - 1, tuple(vols))
        return params, x, dyn.sigma(x, params)

    def generate(self, r: int) -> dict:
        rng = _rng(self.seed, r)
        return {"float": [self._config(rng, n, False) for n in (3, 4, 5)],
                "exact": [self._config(rng, n, True) for n in (3, 4, 5)]}

    def warm_up(self, inputs: dict) -> None:
        dyn = self.lb.dynamics
        for params, x, y in inputs["float"][:1] + inputs["exact"][:1]:
            dyn.evolve_bins(x, params, 4 * params.a[0])
            dyn.step_cars(y, params, 4 * params.a[0])

    def run_round(self, inputs: dict, rec: Recorder) -> dict:
        dyn = self.lb.dynamics
        runs = []
        sim_s = 0.0
        events = 0
        for kind, horizons in (("float", [float(h) for h in LADDER]),
                               ("exact", [Fraction(h) for h in self.EXACT_HORIZONS])):
            for params, x, y in inputs[kind]:
                for h in horizons:
                    bins, dt_b = rec.op(dyn.evolve_bins, x, params, h)
                    cars, dt_c = rec.op(dyn.step_cars, y, params, h)
                    sim_s += dt_b + dt_c
                    events += sum(len(res[1]) for res in (bins, cars) if res is not None)
                    runs.append((kind, params, bins, cars))
        return {"wall_s": sim_s, "ops_per_s": events / sim_s, "runs": runs,
                "samples": {"events_per_s": [events / sim_s]}}

    def check(self, inputs: dict, out: dict, rec: Recorder) -> None:
        sigma = self.lb.dynamics.sigma
        for kind, params, bins, cars in out["runs"]:
            if bins is None or cars is None:
                continue
            mapped, stepped = sigma(bins[0], params), cars[0]
            if kind == "exact":
                rec.check(mapped == stepped and len(bins[1]) == len(cars[1]),
                          f"exact coupling identity fails: {params}")
                continue
            rec.check(len(bins[1]) == len(cars[1]),
                      f"float event counts differ: {len(bins[1])} vs {len(cars[1])}: {params}")
            same_len = len(mapped.positions) == len(stepped.positions)
            diff = max((abs(u - v) for u, v in zip(mapped.positions, stepped.positions)), default=0.0)
            rec.check(same_len and diff <= 1e-9, f"float tail sums differ by {diff:.3g}: {params}")

    @staticmethod
    def extra_metrics(samples: dict) -> dict:
        return {"events_per_s": (statistics.median(samples["events_per_s"]), "1/s")}


class MonteCarlo:
    """Stochastic bin model: a three-scale hydrodynamic check on one
    parameter set each at N = 2, 3 and 4, and chain runs of 1e5, 1e6 and
    1e7 steps on the N = 3 set."""

    NS = (2, 3, 4)
    SCALES = (20, 50, 200)
    HYDRO_STEPS = 10**6
    CHAIN_SCALE = 50
    CHAIN_STEPS = (10**5, 10**6, 10**7)
    A_N = 2.0  # thresholds are rescaled to end here, so the largest move is s * 2
    ATOM_STEPS = 20_000

    def __init__(self, lb, seed: int, out_dir) -> None:
        self.lb, self.seed = lb, seed

    def generate(self, r: int) -> dict:
        rng = _rng(self.seed, r)
        sets = []
        for n in self.NS:
            a = np.cumsum(rng.uniform(0.5, 1.5, size=n))
            a = (a * (self.A_N / a[-1])).tolist()
            a[-1] = self.A_N
            sets.append(self.lb.params.Params(tuple(a), tuple(rng.uniform(0.5, 1.5, size=n).tolist())))
        return {"sets": sets, "dist": self.lb.ibm.mu_s(sets[1], self.CHAIN_SCALE),
                "hydro_seeds": rng.integers(0, 2**31, size=len(sets)).tolist(),
                "chain_seeds": rng.integers(0, 2**31, size=len(self.CHAIN_STEPS)).tolist(),
                "atom": int(rng.integers(2, 8)), "atom_seed": int(rng.integers(0, 2**31))}

    def warm_up(self, inputs: dict) -> None:
        ibm = self.lb.ibm
        ibm.hydrolimit_check(inputs["sets"][0], self.SCALES, 1000, 0)
        ibm.simulate_ibm(inputs["dist"], 1000, 0)

    def run_round(self, inputs: dict, rec: Recorder) -> dict:
        ibm = self.lb.ibm
        mc_s = 0.0
        hydros, sims = [], []
        for params, seed in zip(inputs["sets"], inputs["hydro_seeds"]):
            hydro, dt = rec.op(ibm.hydrolimit_check, params, self.SCALES, self.HYDRO_STEPS, seed, jobs=1)
            mc_s += dt
            hydros.append(hydro)
        for steps, seed in zip(self.CHAIN_STEPS, inputs["chain_seeds"]):
            sim, dt = rec.op(ibm.simulate_ibm, inputs["dist"], steps, seed)
            mc_s += dt
            sims.append(sim)
        steps = len(self.NS) * len(self.SCALES) * self.HYDRO_STEPS + sum(self.CHAIN_STEPS)
        return {"wall_s": mc_s, "ops_per_s": steps / mc_s, "hydros": hydros, "sims": sims,
                "samples": {"mc_steps_per_s": [steps / mc_s]}}

    def check(self, inputs: dict, out: dict, rec: Recorder) -> None:
        ibm = self.lb.ibm
        for hydro in out["hydros"]:
            if hydro is None:
                continue
            first, last = hydro.rows[0], hydro.rows[-1]
            # The trend is only testable where the smallest scale's gap
            # stands clear of the Monte Carlo noise of both ends (s * ci95
            # on s * v): with a margin of two such intervals, a largest-scale
            # gap that is noise alone exceeds it about once in 10^4 sets.
            noise = float(first.s) * first.ci95 + float(last.s) * last.ci95
            trend_testable = first.gap > 2 * noise
            rec.check(last.gap < 0.05 * last.liquid_speed and (last.gap < first.gap or not trend_testable),
                      f"no hydrodynamic trend: gaps {[row.gap for row in hydro.rows]}")
            rec.check(all(math.isfinite(row.ci95) for row in hydro.rows), "non-finite ci95 in hydrolimit_check")
        rec.check(all(math.isfinite(sim.ci95) for sim in out["sims"] if sim is not None),
                  "non-finite ci95 in simulate_ibm")
        k = inputs["atom"]
        dist = ibm.MoveDistribution((k,), (1.0,))
        sim = ibm.simulate_ibm(dist, self.ATOM_STEPS, inputs["atom_seed"])
        exact = float(ibm.deterministic_speed(dist))
        rec.check(abs(sim.speed_estimate - exact) <= 2 * k / self.ATOM_STEPS,
                  f"single atom {k}: estimate {sim.speed_estimate} against exact {exact}")

    @staticmethod
    def extra_metrics(samples: dict) -> dict:
        return {"mc_steps_per_s": (statistics.median(samples["mc_steps_per_s"]), "1/s")}


class JumpOrders:
    """Conjecture probes for every connected region graph at N = 4 and 5,
    and the circular extensions of every connected graph at N = 7."""

    BUDGET = 200
    PROBE_NS = (4, 5)
    EXT_N = 7

    def __init__(self, lb, seed: int, out_dir) -> None:
        self.lb, self.seed = lb, seed
        self.graphs = {n: _connected(lb, n) for n in self.PROBE_NS + (self.EXT_N,)}

    def generate(self, r: int) -> dict:
        rng = _rng(self.seed, r)
        return {n: rng.integers(0, 2**31, size=len(self.graphs[n])).tolist() for n in self.PROBE_NS}

    def warm_up(self, inputs: dict) -> None:
        cyclic = self.lb.cyclic
        for n in self.PROBE_NS:
            cyclic.conjecture_probe(self.graphs[n][0], 5, 0)
        cyclic.circular_extensions(self.graphs[self.EXT_N][0])

    def run_round(self, inputs: dict, rec: Recorder) -> dict:
        cyclic = self.lb.cyclic
        probe_s = {n: 0.0 for n in self.PROBE_NS}
        reports = {}
        for n in self.PROBE_NS:
            reports[n] = []
            for g, seed in zip(self.graphs[n], inputs[n]):
                rep, dt = rec.op(cyclic.conjecture_probe, g, self.BUDGET, seed)
                probe_s[n] += dt
                reports[n].append(rep)
        ext_s = 0.0
        extensions = []
        for g in self.graphs[self.EXT_N]:
            ext, dt = rec.op(cyclic.circular_extensions, g)
            ext_s += dt
            extensions.append(ext)
        # A sample costs several times more at N = 5 than at N = 4, and
        # probes that stop early change the mix from round to round; the
        # rate is therefore taken at the budgeted mix (graphs * BUDGET at
        # each N) from the mean time per sample at each N.
        budgeted = {n: len(self.graphs[n]) * self.BUDGET for n in self.PROBE_NS}
        done = {n: sum(rep.samples for rep in reports[n] if rep is not None) for n in self.PROBE_NS}
        rate = sum(budgeted.values()) / sum(budgeted[n] * probe_s[n] / max(1, done[n]) for n in self.PROBE_NS)
        return {"wall_s": sum(probe_s.values()) + ext_s, "ops_per_s": rate,
                "reports": reports, "extensions": extensions,
                "samples": {"probe_samples_per_s": [rate]}}

    def check(self, inputs: dict, out: dict, rec: Recorder) -> None:
        fibers = {n: [rep.extensions if rep is not None else () for rep in reps]
                  for n, reps in out["reports"].items()}
        fibers[self.EXT_N] = [ext if ext is not None else () for ext in out["extensions"]]
        for reps in out["reports"].values():
            for rep in reps:
                if rep is not None:
                    rec.check(set(rep.realized) <= set(rep.extensions) and rep.hits <= rep.samples <= self.BUDGET,
                              f"probe of {sorted(rep.graph.edges)} realised a non-extension")
        for n, exts in fibers.items():
            orders = [z for ext in exts for z in ext]
            rec.check(len(orders) == len(set(orders)) == math.factorial(n - 1),
                      f"fibers at N = {n} hold {len(orders)} orders, want {math.factorial(n - 1)}")

    @staticmethod
    def extra_metrics(samples: dict) -> dict:
        return {"probe_samples_per_s": (statistics.median(samples["probe_samples_per_s"]), "1/s")}


WORKLOADS = {
    "phase-diagram": PhaseDiagram,
    "trajectory": Trajectory,
    "montecarlo": MonteCarlo,
    "jump-orders": JumpOrders,
}
