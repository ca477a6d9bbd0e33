"""Shared generators for randomized (seeded) property tests."""
from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import strategies as st

from liquidbin import combinatorics, regions
from liquidbin.cyclic import (
    CyclicOrder,
    DisconnectedRegionError,
    ProbeReport,
    WallTieError,
    _order_from_times,
    circular_extensions,
    jump_order,
    sample_params,
)
from liquidbin.dynamics import (
    CURSOR_JUMP,
    SIGN_CROSSING,
    BinConfig,
    CarConfig,
    Event,
    _CarSim,
    cursors,
)
from liquidbin.params import Params, is_exact_scalar
from liquidbin.stationary import StationaryProfile, canonical_configuration


@pytest.fixture
def forbid_enumeration(monkeypatch):
    """Fail the test if it builds the Catalan-sized list of all graphs."""
    def refuse(n):
        raise AssertionError(f"enumerate_dc({n}) built")

    monkeypatch.setattr(regions, "enumerate_dc", refuse)
    monkeypatch.setattr(combinatorics, "enumerate_dc", refuse)


@pytest.fixture
def cold_plans():
    """An empty plan cache, before and after the test."""
    regions._plan_b.cache_clear()
    yield
    regions._plan_b.cache_clear()


def replay_jump_order(params: Params, graph: combinatorics.DCGraph, z) -> CyclicOrder:
    """Jump order of the stationary profile z of graph, read off a replay
    of one period in the car model: the oracle for cyclic.jump_order, which
    reduces the breakpoint times mod the period instead.

    The canonical stationary configuration is advanced by one period and
    each sign's first crossing is its cursor's jump.  In float mode the
    replay runs 1e-9 of a period past its end, so a jump at the period
    boundary is not lost; a second crossing of a sign farther than that
    from its first belongs to the next period and is ignored.
    """
    if combinatorics.connected_component_of_one(graph).n != graph.n:
        raise DisconnectedRegionError(graph)
    exact = params.is_exact
    profile = StationaryProfile(z)
    horizon = profile.period if exact else profile.period * (1 + 1e-9)
    sim = _CarSim(canonical_configuration(profile, params), params)
    sim.run(horizon)
    first = {}
    for ev in sim.event_log():
        if ev.index in first:
            if not exact and abs(ev.time - first[ev.index]) > 1e-9 * float(profile.period):
                continue  # next period's crossing caught by the float overshoot
            raise WallTieError(f"cursor {ev.index} recorded two jumps in one period")
        first[ev.index] = ev.time
    if set(first) != set(range(1, params.n + 1)):
        raise WallTieError(f"period replay saw jumps {sorted(first)} instead of all cursors")
    return _order_from_times([(t, i) for i, t in first.items()], profile.period, exact)


def clearly_outside(g: combinatorics.DCGraph, params: Params, tol) -> bool:
    """Some wall of g is on the wrong side of the parameters by more than
    the margin max(tol, 1e-12) * z_1, with z = solve_system(g, params): a
    maximal gap below -margin, or an addable gap above it.  The oracle for
    the rule by which the conjecture probe rejects a sample unwalked."""
    z = regions.solve_system(g, params)
    margin = max(tol, 1e-12) * z[0]
    gaps = [(z[0] - sum(z[i:j]), is_maximal) for i, j, is_maximal in g.walls]
    return any(gap < -margin if is_maximal else gap > margin for gap, is_maximal in gaps)


def reference_conjecture_probe(
    g: combinatorics.DCGraph, budget: int, seed: int, tol=1e-9
) -> ProbeReport:
    """cyclic.conjecture_probe with one `sample_params` call per sample,
    each located by classify: the oracle for the probe, which draws its
    samples a chunk at a time and walks only those not clearly outside
    the region of g.  An ambiguous report counts in skipped unless the
    sample is clearly outside g (see clearly_outside)."""
    if combinatorics.connected_component_of_one(g).n != g.n:
        raise DisconnectedRegionError(g)
    extensions = circular_extensions(g)
    counts = {z: 0 for z in extensions}
    rng = np.random.default_rng(seed)
    hits = skipped = used = 0
    remaining = set(extensions)
    for used in range(1, budget + 1):
        params = sample_params(rng, g.n)
        report = regions.classify(params, tol=tol)
        if report.ambiguous:
            skipped += not clearly_outside(g, params, tol)
            continue
        if report.graph != g:
            continue
        hits += 1
        try:
            order = jump_order(params, tol=tol, graph=g, z=report.z)
        except WallTieError:
            skipped += 1
            continue
        counts[order] += 1
        remaining.discard(order)
        if not remaining:
            break
    return ProbeReport(
        graph=g, counts=tuple(counts.items()), samples=used, hits=hits, skipped=skipped, seed=seed
    )


class _ReferenceEventSim:
    """The generic event loop the compiled bin loop and the fused car loop
    replaced: list the pending events, advance to the earliest, apply it
    with every event tied with it, and repeat until the duration runs
    out.  The oracle for dynamics._BinSim and dynamics._CarSim, which must
    give the same bits."""

    def __init__(self, params: Params, values):
        self.a = params.a
        self.q = params.q
        self.n = params.n
        self.exact = params.is_exact and all(is_exact_scalar(v) for v in values)
        self.t = 0 * params.a[0]

    def next_event(self):
        """Time to the earliest pending event and the batch of events tied
        with it: equal in exact mode, within a relative 1e-12 in float."""
        times, events = self._pending()
        if not times:
            return None
        dt = min(times)
        cutoff = dt if self.exact else dt * (1 + 1e-12)
        return dt, [e for d, e in zip(times, events) if d <= cutoff]

    def run(self, duration) -> None:
        """Advance by duration; events landing exactly at the final
        instant are applied."""
        remaining = duration
        while remaining > 0:
            nxt = self.next_event()
            if nxt is None or nxt[0] > remaining:
                self._move(remaining)
                self.t = self.t + remaining
                return
            dt, batch = nxt
            self._move(dt)
            self.t = self.t + dt
            remaining = remaining - dt
            self._apply(batch)


class ReferenceCarSim(_ReferenceEventSim):
    """Car model: positions descending, the trailing entry the head of the
    queue at 0; _pending keeps each car's speed in speeds for _move."""

    def __init__(self, y: CarConfig, params: Params):
        super().__init__(params, y.positions)
        if y.positions and not y.positions[0] < params.a[-1]:
            raise ValueError("stored car positions must lie below a_N")
        self.pos = list(y.positions)
        self.ids = list(range(len(self.pos)))
        self._next_id = len(self.pos)
        self._respawn_zero()
        self.crossings = []  # (time, sign, car id)
        self.speeds = []

    def _pending(self):
        a, q, n = self.a, self.q, self.n
        times, events = [], []
        self.speeds = speeds = []
        ahead = n  # sign index of the car ahead
        for k, x in enumerate(self.pos):
            v = q[ahead]
            speeds.append(v)
            s = bisect_right(a, x)
            if s < n and v > 0:
                times.append((a[s] - x) / v)
                events.append((k, s + 1))
            ahead = s
        return times, events

    def _move(self, dt) -> None:
        self.pos = [x + v * dt for x, v in zip(self.pos, self.speeds)]
        self._respawn_zero()

    def _apply(self, batch) -> None:
        pos, a = self.pos, self.a
        for (k, sign) in sorted(batch, key=lambda e: e[1]):
            pos[k] = a[sign - 1]
            self.crossings.append((self.t, sign, self.ids[k]))
        if pos[0] >= a[-1]:  # cars that crossed a_N leave, a prefix of pos
            gone = 1
            while gone < len(pos) and pos[gone] >= a[-1]:
                gone += 1
            del pos[:gone], self.ids[:gone]

    def _respawn_zero(self) -> None:
        if not self.pos or self.pos[-1] > 0:
            self.pos.append(0 * self.a[0])
            self.ids.append(self._next_id)
            self._next_id += 1

    def to_config(self) -> CarConfig:
        return CarConfig(tuple(x for x in self.pos if x > 0))

    def event_log(self) -> tuple[Event, ...]:
        return tuple(Event(t, SIGN_CROSSING, sign, self.a[sign - 1]) for (t, sign, _) in self.crossings)


class ReferenceBinSim(_ReferenceEventSim):
    """Bin model: vol[k] is bin c_N + k up to the front; rates are q at
    the end of each cursor's tie block, reset after every batch."""

    def __init__(self, x: BinConfig, params: Params):
        super().__init__(params, x.volumes)
        self.p = params.p
        self.front = x.front
        self.c = list(cursors(x, params))
        self.vol = list(reversed(x.volumes[: x.front - self.c[-1] + 1]))
        self.jumps = []  # (time, cursor, new bin)
        self._set_rates()

    def _set_rates(self) -> None:
        c, q, n = self.c, self.q, self.n
        self.rates = rates = [q[n]] * n
        for i in range(n - 2, -1, -1):
            rates[i] = q[i + 1] if c[i] > c[i + 1] else rates[i + 1]

    def _pending(self):
        tails = [0]
        tails += accumulate(self.vol[:0:-1])
        front = self.front
        times = [(ai - tails[front - ci]) / r for ai, ci, r in zip(self.a, self.c, self.rates)]
        return times, range(self.n)

    def _move(self, dt) -> None:
        vol, base = self.vol, self.c[-1]
        if self.c[0] >= self.front:  # stream 1 starts a new front bin
            vol.append(0 * dt)
            self.front = self.c[0] + 1
        for ci, pj in zip(self.c, self.p):
            vol[ci + 1 - base] += pj * dt

    def _apply(self, batch) -> None:
        for i in batch:
            self.c[i] += 1
            self.jumps.append((self.t, i + 1, self.c[i]))
        if self.n - 1 in batch:
            del self.vol[0]
        self._set_rates()

    def to_config(self) -> BinConfig:
        return BinConfig(self.front, tuple(v for v in reversed(self.vol) if v > 0))

    def event_log(self) -> tuple[Event, ...]:
        return tuple(Event(t, CURSOR_JUMP, i, b) for (t, i, b) in self.jumps)


def reference_evolve_bins(x: BinConfig, params: Params, t):
    """dynamics.evolve_bins on the generic loop: its oracle."""
    sim = ReferenceBinSim(x, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()


def reference_step_cars(y: CarConfig, params: Params, t):
    """dynamics.step_cars on the generic loop: its oracle."""
    sim = ReferenceCarSim(y, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()


def reference_b(g: combinatorics.DCGraph) -> tuple[int, ...]:
    """The b map by a scan of the edge set per vertex: the oracle for
    DCGraph.b.  b[0] = 1; b[i] is the largest j > i joined to i, else i."""
    def farthest(i):
        best = i
        for (u, v) in g.edges:
            if u == i and v > best:
                best = v
        return best

    return (1, *map(farthest, range(1, g.n + 1)))


def reference_component_of_one(g: combinatorics.DCGraph) -> combinatorics.DCGraph:
    """The component of vertex 1 by a search over the undirected edges,
    checked to be an interval [1, k], with g's edges inside it: the
    oracle for combinatorics.connected_component_of_one."""
    members = {1}
    frontier = [1]
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for (i, j) in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in members:
                members.add(w)
                frontier.append(w)
    k = max(members)
    assert members == set(range(1, k + 1)), "component of vertex 1 must be an interval"
    return combinatorics.DCGraph(k, frozenset(e for e in g.edges if e[1] <= k))


def reference_f_map(z: CyclicOrder) -> combinatorics.DCGraph:
    """The graph of a jump order built edge by edge: the oracle for
    cyclic.f_map, which builds the b map (1, beta(1), ..., beta(N))."""
    n = z.n
    edges = set()
    for i in range(1, n + 1):
        beta = min(i + 1, n)
        for m in range(i + 2, n + 1):
            if z.contains(i, m - 1, m):
                beta = m
            else:
                break
        for j in range(i + 1, beta + 1):
            edges.add((i, j))
    return combinatorics.DCGraph(n, frozenset(edges))


def gap_edges(z, margin) -> frozenset:
    """The pairs (i, j) whose sub-pairs (i', j') all have
    z_1 - (z_{i'+1} + ... + z_{j'}) > margin, as a pair set: the oracle
    for regions._next_b, which builds the b map of this set directly.

    By increasing length, a pair is kept when it is above the margin and
    its two immediate children (i+1, j) and (i, j-1) are kept.
    """
    n = len(z)
    up = {(i, j) for (i, j) in combinatorics.all_pairs(n) if z[0] - sum(z[i:j]) > margin}
    keep = set()
    for length in range(1, n):
        for i in range(1, n - length + 1):
            j = i + length
            if (i, j) in up and (length == 1 or (i + 1, j) in keep and (i, j - 1) in keep):
                keep.add((i, j))
    return frozenset(keep)


def reference_gap_b(z, margin) -> tuple[int, ...]:
    """regions._next_b with each pair's gap summed from scratch: the
    oracle for its running totals.  Row i runs from (i, i+1) while the
    pair is above the margin, up to at most b(i+1)."""
    n = len(z)
    b = [1] * (n + 1)
    b[n] = n
    for i in range(n - 1, 0, -1):
        j = i
        while j < b[i + 1] and z[0] - sum(z[i:j + 1]) > margin:
            j += 1
        b[i] = j
    return tuple(b)


def reference_walk(params: Params) -> tuple[combinatorics.DCGraph, tuple]:
    """regions._walk on DCGraph values: the oracle for the walk on b maps.

    Each step tests the walls from the edge sets m(G) and M(G) and moves
    to the graph of gap_edges(z, 0).
    """
    g, seen = combinatorics.DCGraph.empty(params.n), set()
    while True:
        z = regions.solve_system(g, params)
        gap = {(i, j): z[0] - sum(z[i:j]) for (i, j) in combinatorics.all_pairs(params.n)}
        if g in seen or (all(gap[e] > 0 for e in combinatorics.maximal_edges(g))
                         and not any(gap[e] > 0 for e in combinatorics.addable_edges(g))):
            return g, z
        seen.add(g)
        g = combinatorics.DCGraph(params.n, gap_edges(z, 0))


def random_rational_params(
    rng: random.Random, n: int, max_num: int = 8, max_den: int = 4
) -> Params:
    """Strictly increasing thresholds and positive rates with small
    rational entries."""
    a = []
    acc = Fraction(0)
    for _ in range(n):
        acc += Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
        a.append(acc)
    p = tuple(Fraction(rng.randint(1, max_num), rng.randint(1, max_den)) for _ in range(n))
    return Params(tuple(a), p)


def random_mild_params(rng: random.Random, n: int) -> Params:
    """Rational parameters with the first rate dominating, keeping the
    contraction factor at most 3/4."""
    a = []
    acc = Fraction(0)
    for _ in range(n):
        acc += Fraction(rng.randint(1, 6), rng.randint(1, 3))
        a.append(acc)
    rest = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n - 1)]
    p1 = sum(rest, Fraction(0)) / 3 + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return Params(tuple(a), (p1, *rest))


def tied_phase_thresholds(rng: random.Random, n: int) -> tuple[int, ...]:
    """Integer thresholds of an exact wall point for unit rates.

    Cursors get random phases in [0, n), period n; the breakpoint times
    step by the phase differences, a tied phase by a full period (which
    puts the point on the wall of that edge).  The stationarity relations
    a_i = sum_j (S_i - S_j + S_1)_+ give the thresholds, and uniqueness of
    the stationary profile makes S the profile of the point.
    """
    phases = [rng.randrange(n) for _ in range(n)]
    s = [n]
    for i in range(1, n):
        s.append(s[-1] + ((phases[i] - phases[i - 1]) % n or n))
    return tuple(sum(max(si - sj + s[0], 0) for sj in s) for si in s)


def random_bin_config(rng: random.Random, params: Params) -> BinConfig:
    """Admissible window: positive volumes cumulating past a_N."""
    volumes = []
    total = Fraction(0)
    while total < params.a[-1]:
        v = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        volumes.append(v)
        total += v
    return BinConfig(front=rng.randint(-3, 5), volumes=tuple(volumes))


def random_duration(rng: random.Random, max_units: int = 24) -> Fraction:
    return Fraction(rng.randint(0, max_units), rng.randint(1, 6))


def dyck_words(n: int):
    """Hypothesis strategy: Dyck words of length 2n, one up/down choice
    per free step."""
    def build(choices):
        word, ups, height = [], 0, 0
        for up in choices:
            if ups < n and (up or height == 0):
                word.append("+")
                ups += 1
                height += 1
            else:
                word.append("-")
                height -= 1
        return "".join(word)

    return st.lists(st.booleans(), min_size=2 * n, max_size=2 * n).map(build)
