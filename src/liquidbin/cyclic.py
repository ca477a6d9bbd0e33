"""Cyclic order of cursor jumps in the stationary regime.

Over one period every cursor jumps exactly once; reading the jumps
clockwise gives a total cyclic order on [1, N].  The order determines the
stationary graph: beta(i) is the largest m such that (i, i+1, ..., m)
appears clockwise, and the edges are the pairs (i, j) with j <= beta(i).
Conversely each connected DC graph carries a partial cyclic order (three
chain families per maximal edge) whose circular extensions form exactly
the fiber of that map; the tests check this against the f_map fiber of
every connected graph up to N = 8.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .combinatorics import DCGraph, b_to_dc, connected_component_of_one
from .params import Number, Params
from .regions import _check_tol, _settle, _walk, classify, float_solution, solve_system


class DisconnectedRegionError(ValueError):
    """Stationary graph not connected: the jump-order map is undefined."""

    def __init__(self, graph: DCGraph):
        super().__init__(
            f"stationary graph with edges {sorted(graph.edges)} is not connected"
        )
        self.graph = graph


class WallTieError(ValueError):
    """Two cursors jump simultaneously: the parameters sit on a wall."""


@dataclass(frozen=True)
class CyclicOrder:
    """Cyclic permutation of [1, N], stored as the rotation starting at 1."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = tuple(self.order)
        n = len(seq)
        if sorted(seq) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {seq}")
        k = seq.index(1)
        object.__setattr__(self, "order", seq[k:] + seq[:k])

    @property
    def n(self) -> int:
        return len(self.order)

    def contains(self, x: int, y: int, z: int) -> bool:
        """Triple test: y lies strictly between x and z clockwise."""
        return _is_chain(self.order, (x, y, z))

    def is_chain(self, entries: Sequence[int]) -> bool:
        """(i_1, ..., i_m) appears in clockwise order (see _is_chain)."""
        return _is_chain(self.order, entries)


def _is_chain(order: tuple[int, ...], entries: Sequence[int]) -> bool:
    """(i_1, ..., i_m) appears in clockwise order in the cyclic order
    read off the tuple order (vacuous for m <= 2): contains(i_1, i_k,
    i_{k+1}) for every k, that is, the clockwise offsets of i_2, ..., i_m
    from i_1 are positive and increasing.  Each entry is looked up once,
    and the test stops at the first offset out of order."""
    if len(entries) <= 2:
        return True
    n, start, prev = len(order), order.index(entries[0]), 0
    for v in entries[1:]:
        offset = (order.index(v) - start) % n
        if offset <= prev:
            return False
        prev = offset
    return True


def _require_connected(g: DCGraph) -> None:
    if connected_component_of_one(g).n != g.n:
        raise DisconnectedRegionError(g)


def f_map(z: CyclicOrder) -> DCGraph:
    """Graph of a jump order: edges (i, j) with j <= beta(i), where
    beta(i) extends while (i, m-1, m) keeps appearing clockwise."""
    n = z.n
    b = [1]
    for i in range(1, n + 1):
        beta = min(i + 1, n)
        for m in range(i + 2, n + 1):
            if z.contains(i, m - 1, m):
                beta = m
            else:
                break
        b.append(beta)
    return b_to_dc(tuple(b))


def zprime_chains(g: DCGraph) -> tuple[tuple[int, ...], ...]:
    """Chain families of the partial cyclic order of a connected graph.

    For every vertex i with farthest neighbour j = b(i): the run
    (i, i+1, ..., j), the stop (j, i, j+1) forcing j+1 to fall outside
    i's window, and the wedge (i, i-1, j) when vertex i-1 does not reach
    j.  On a maximal edge these are the familiar three tuples.  The runs
    and stops, emitted for every vertex, already make the circular
    extensions coincide with the fiber of f_map, which the tests check;
    the wedges are redundant for the extension set at every N up to the
    extension cap (dropping them changes no extension of any connected
    graph there).  They stay as the third chain family of the partial
    cyclic order, which the `extensions` command prints.  Vacuous or
    out-of-range tuples are dropped, so each chain is a plain tuple of 3
    or more cursors, distinct by construction: a run counts up, and a
    wedge or a stop reads i - 1 < i < j < j + 1 in some order.
    """
    _require_connected(g)
    out: list[tuple[int, ...]] = []
    seen = set()
    b = g.b
    for i in range(1, g.n):
        j = b[i]
        candidates = [tuple(range(i, j + 1))]
        if i - 1 >= 1 and b[i - 1] < j:
            candidates.append((i, i - 1, j))
        if j + 1 <= g.n:
            candidates.append((j, i, j + 1))
        for tup in candidates:
            if len(tup) >= 3 and tup not in seen:
                seen.add(tup)
                out.append(tup)
    return tuple(out)


_EXTENSION_N_CAP = 9  # extension counts grow factorially with N


def check_extension_cap(n: int) -> None:
    """Refuse n above the extension cap, before anything of size n is built."""
    if n > _EXTENSION_N_CAP:
        raise ValueError(f"refusing factorial enumeration for n = {n} > {_EXTENSION_N_CAP}")


def all_cyclic_orders(n: int) -> tuple[CyclicOrder, ...]:
    return tuple(
        CyclicOrder((1,) + perm) for perm in itertools.permutations(range(2, n + 1))
    )


def circular_extensions(g: DCGraph) -> tuple[CyclicOrder, ...]:
    """All total cyclic orders extending the partial order of g, sorted
    by their rotation starting at 1.

    Built by constrained insertion: v = 2, ..., N is inserted at every
    position, and a placement is kept only if it satisfies every chain
    whose largest entry is v.  A later insertion never changes the
    relative cyclic order of cursors already placed, so each chain is
    tested once, when its last entry lands.  The placements grow as plain
    tuples that start at 1; only the survivors become CyclicOrders.  The
    tests check the result against the fiber of f_map over all (N-1)!
    orders.
    """
    _require_connected(g)
    check_extension_cap(g.n)
    chains = zprime_chains(g)
    exts = [(1,)]
    for v in range(2, g.n + 1):
        closing = [c for c in chains if max(c) == v]
        grown = (z[:k] + (v,) + z[k:] for z in exts for k in range(1, v))
        exts = [z for z in grown if all(_is_chain(z, c) for c in closing)]
    return tuple(map(CyclicOrder, sorted(exts)))


def _phases(z: tuple[Number, ...]) -> list[Number]:
    """Jump phase of each cursor within one period: the breakpoint times
    reduced mod the period (cursor 1 at phase 0)."""
    period = z[0]
    phases = []
    acc = 0 * period
    for zi in z:
        acc = acc + zi
        phases.append(acc % period)
    return phases


def _order_from_times(
    times: list[tuple[Number, int]], period: Number, exact: bool
) -> CyclicOrder:
    times = sorted(times)
    tol = 0 if exact else 1e-9 * float(period)
    for (t1, s1), (t2, s2) in zip(times, times[1:]):
        if abs(t2 - t1) <= tol:
            raise WallTieError(f"cursors {s1} and {s2} jump simultaneously (wall parameters)")
    wrap = period - (times[-1][0] - times[0][0])
    if len(times) > 1 and abs(wrap) <= tol:
        raise WallTieError(
            f"cursors {times[0][1]} and {times[-1][1]} jump simultaneously (wall parameters)"
        )
    return CyclicOrder(tuple(s for _, s in times))


def jump_order(
    params: Params,
    tol: Number = 1e-9,
    graph: DCGraph | None = None,
    z: tuple[Number, ...] | None = None,
) -> CyclicOrder:
    """Cyclic order in which the cursors jump in the stationary regime,
    read from the stationary breakpoint times reduced mod the period.

    Without a graph, the parameters are classified here (tol as in
    classify); with one, z defaults to its solution.  Parameters whose
    stationary graph is disconnected are rejected (the graph rides the
    error).  WallTieError is raised on simultaneous jumps, and on a float
    report that is ambiguous (within tol of a wall), where the order of
    its graph may not be the region's.  The tests check the order against
    a replay of one period in the car model.
    """
    ambiguous = False
    if graph is None:
        report = classify(params, tol=tol)
        graph, z, ambiguous = report.graph, report.z, report.ambiguous
    elif z is None:
        z = solve_system(graph, params)
    if ambiguous:  # checked first: an ambiguous report's graph, connected or not, is not proven
        raise WallTieError(f"parameters within tol={tol} of a wall: the jump order is undefined there")
    _require_connected(graph)
    times = [(u, i + 1) for i, u in enumerate(_phases(z))]
    return _order_from_times(times, z[0], params.is_exact)


@dataclass(frozen=True)
class ProbeReport:
    """Stores graph, counts, samples, hits, skipped, seed; derives extensions, realized, missing."""

    graph: DCGraph
    counts: tuple[tuple[CyclicOrder, int], ...]  # (extension, times realized), in extension order
    samples: int
    hits: int
    skipped: int
    seed: int
    method: ClassVar[str] = "stationary-phases"
    rng: ClassVar[str] = "numpy-pcg64"

    @property
    def extensions(self) -> tuple[CyclicOrder, ...]:
        return tuple(z for z, _ in self.counts)

    @property
    def realized(self) -> tuple[CyclicOrder, ...]:
        return tuple(z for z, c in self.counts if c > 0)

    @property
    def missing(self) -> tuple[CyclicOrder, ...]:
        return tuple(z for z, c in self.counts if c == 0)

    @property
    def covered(self) -> bool:
        return not self.missing

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "extensions": [list(z.order) for z in self.extensions],
            "realized": [list(z.order) for z in self.realized],
            "missing": [list(z.order) for z in self.missing],
            "counts": {"-".join(map(str, z.order)): c for z, c in self.counts},
            "samples": self.samples,
            "hits": self.hits,
            "skipped": self.skipped,
            "seed": self.seed,
            "method": self.method,
            "rng": self.rng,
            "covered": self.covered,
        }


_SAMPLE_CHUNK = 64  # the probe draws its samples in batches of at most this many


def _draw(rng: np.random.Generator, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds and rates of `count` consecutive samples of the law of
    `sample_params`, drawn at once: two (count, n) arrays, one row per
    sample.

    Row k of the (count, 2, n) draw holds sample k's log-gaps, then its
    log-rates, so the generator's doubles go where `count` calls of
    `sample_params` would put them; the elementwise `10.0 **` and the
    cumsum along each row give every value the bits it gets there.
    """
    x = 10.0 ** rng.uniform(-2.0, 2.0, size=(count, 2, n))
    return np.cumsum(x[:, 0], axis=1), x[:, 1]


def sample_params(rng: np.random.Generator, n: int) -> Params:
    """The probe's sampling law: gaps and rates log-uniform over
    [1e-2, 1e2], n gaps then n rates from the generator per sample."""
    a, p = _draw(rng, n, 1)
    return Params(a[0].tolist(), p[0].tolist())


def _probe_stream(rng: np.random.Generator, n: int, budget: int) -> Iterator[tuple]:
    """The samples of `budget` consecutive `sample_params` calls as rows
    (a, p, q, d): thresholds and rates as lists, and the tuples q and d
    of Params(a, p), built without a Params.

    The samples are drawn in chunks of at most _SAMPLE_CHUNK, so no
    allocation grows with the budget.  Each chunk's d (the row
    differences after a 0) and q (the running sum of the rates after a
    0) are elementwise operations and sequential sums, as in Params, so
    every value keeps the bits Params gives it.  No draw can fail the
    checks of Params: every gap and rate lies in [1e-2, 1e2], so the
    thresholds are positive and strictly increasing, the rates positive,
    and q_N <= 100 N is finite.
    """
    for start in range(0, budget, _SAMPLE_CHUNK):
        a, p = _draw(rng, n, min(_SAMPLE_CHUNK, budget - start))
        d = np.diff(a, axis=1, prepend=0.0)
        q = np.cumsum(np.concatenate((np.zeros((len(p), 1)), p), axis=1), axis=1)
        yield from zip(a.tolist(), p.tolist(), map(tuple, q.tolist()), map(tuple, d.tolist()))


def conjecture_probe(g: DCGraph, budget: int, seed: int, tol: Number = 1e-9) -> ProbeReport:
    """Sample parameters, keep those landing in the region of g, and
    record which circular extensions occur as jump orders.

    The samples are those of consecutive `sample_params` calls on
    numpy's default generator seeded with `seed`; they are drawn a chunk
    at a time, which moves no sample.  Stops early once every extension
    is realized.  Unrealized extensions are reported as not found within
    the budget, never as refutations.  tol must be finite and >= 0, as in
    classify (ValueError otherwise, whatever the budget).

    Each sample is located with the report classify gives it, from one
    float walk of its (q, d) row (see _probe_stream): a walk that ends
    clear of every wall gives its graph and solution, verified without
    flags, once the solution passes float_solution as in classify; any
    other walk goes on to classify's _settle.  A Params is built only for
    those samples and for the hits, which jump_order reads.
    """
    _require_connected(g)
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    _check_tol(tol)
    extensions = circular_extensions(g)
    counts: dict[CyclicOrder, int] = {z: 0 for z in extensions}
    rng = np.random.default_rng(seed)
    hits = skipped = used = 0
    remaining = set(extensions)
    for used, (a, p, q, d) in enumerate(_probe_stream(rng, g.n, budget), 1):
        graph, z, _, clear = _walk(q, d, tol=tol)
        if clear:
            float_solution(z)  # the range check of classify's report
        else:
            report = _settle(Params(a, p), tol, graph, z, False)
            if report.ambiguous:
                skipped += 1  # within tolerance of a wall: never guess
                continue
            graph, z = report.graph, report.z
        if graph != g:
            continue
        hits += 1
        try:
            order = jump_order(Params(a, p), tol=tol, graph=g, z=z)
        except WallTieError:
            skipped += 1
            continue
        if order not in counts:
            raise AssertionError(
                f"jump order {order.order} is not an extension of the region graph"
            )
        counts[order] += 1
        remaining.discard(order)
        if not remaining:
            break
    return ProbeReport(
        graph=g, counts=tuple(counts.items()), samples=used, hits=hits, skipped=skipped, seed=seed
    )
