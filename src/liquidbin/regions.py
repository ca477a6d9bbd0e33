"""Per-graph linear systems, closed-form front speeds, and the partition
of parameter space into Catalan-indexed regions.

For a DC graph G, the sojourn vector z solves a triangular system whose
coefficients are path weights in G.  The parameters lie in the region of
G exactly when z_1 > z_{i+1} + ... + z_j for the maximal edges (i, j) of
G and z_1 <= z_{i+1} + ... + z_j for its addable pairs; this package
classifies points by walking to the region in floating point, confirms
with the closed form, and reports near-equalities as wall flags instead
of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence

from .combinatorics import (
    DCGraph,
    DyckPath,
    Edge,
    addable_edges,
    all_pairs,
    b_map,
    dc_to_dyck,
    enumerate_dc,
    graph_index,
    maximal_edges,
    regions_adjacent,
)
from ._parallel import parallel_map
from .params import Number, Params, ParamsError, parse_number


def _tables(g: DCGraph, params: Params):
    """b map (index 0..N), edge weights, and the path-weight matrix of g.

    Path weights are accumulated by descending first-step decomposition,
    O(N^3), never by enumerating the (exponentially many) paths.
    """
    n, q = params.n, params.q
    b = [b_map(g, i) for i in range(n + 1)]
    gam = {}
    for (i, j) in g.edges:
        gam[(i, j)] = (q[b[i]] - q[max(j - 1, b[i - 1])]) / q[b[i - 1]]
    big = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n, 0, -1):
        big[i][i] = 1
        for j in range(i + 1, n + 1):
            big[i][j] = sum(gam[(i, h)] * big[h][j] for h in range(i + 1, min(j, b[i]) + 1))
    return b, gam, big


def gamma(g: DCGraph, params: Params, e: Edge) -> Number:
    """Weight of edge (i, j): (q_{b(i)} - q_{max(j-1, b(i-1))}) / q_{b(i-1)}."""
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge of the graph")
    _, gam, _ = _tables(g, params)
    return gam[e]


def big_gamma(g: DCGraph, params: Params, i: int, j: int) -> Number:
    """Total weight of the directed paths from i to j (1 when i == j)."""
    if not 1 <= i <= j <= params.n:
        raise ValueError("need 1 <= i <= j <= N")
    _, _, big = _tables(g, params)
    return big[i][j]


def solve_system(g: DCGraph, params: Params) -> tuple[Number, ...]:
    """Closed-form solution of the per-graph linear system.

    z_1 is a ratio of weighted gap sums; the remaining z_i follow from the
    triangular structure.  Exact when the parameters are Fractions.
    """
    n, q, d = params.n, params.q, params.d
    b, _, big = _tables(g, params)

    def gap_sum(i: int) -> Number:
        return sum(big[i][j] * d[j - 1] / q[b[j - 1]] for j in range(i, n + 1))

    def rate_sum(i: int) -> Number:
        return sum(big[i][j] * (q[b[j]] - q[b[j - 1]]) / q[b[j - 1]] for j in range(i, n + 1))

    z1 = gap_sum(1) / (1 + rate_sum(1))
    z = [z1]
    for i in range(2, n + 1):
        z.append(gap_sum(i) - z1 * rate_sum(i))
    return tuple(z)


def solve_system_triangular(g: DCGraph, params: Params) -> tuple[Number, ...]:
    """Independent route: back-substitute the row-difference system with
    z_1 carried as an affine unknown, then close the first row."""
    n, q, d = params.n, params.q, params.d
    b, gam, _ = _tables(g, params)
    aff: dict[int, tuple[Number, Number]] = {}  # i -> (const, coeff of z1)
    for i in range(n, 0, -1):
        u = d[i - 1] / q[b[i - 1]]
        w = -(q[b[i]] - q[b[i - 1]]) / q[b[i - 1]]
        for j in range(i + 1, b[i] + 1):
            u = u + gam[(i, j)] * aff[j][0]
            w = w + gam[(i, j)] * aff[j][1]
        aff[i] = (u, w)
    z1 = aff[1][0] / (1 - aff[1][1])
    return tuple(aff[i][0] + aff[i][1] * z1 if i > 1 else z1 for i in range(1, n + 1))


def system_residual(g: DCGraph, params: Params, z: Sequence[Number]) -> Number:
    """Sup-norm residual of z in the untransformed linear system
    a_i = sum_{j <= b(i)} p_j ((z_1+...+z_i) - (z_1+...+z_j) + z_1)."""
    n, p = params.n, params.p
    b, _, _ = _tables(g, params)
    prefix = [0]
    for zi in z:
        prefix.append(prefix[-1] + zi)
    worst = 0
    for i in range(1, n + 1):
        acc = sum(p[j - 1] * (prefix[i] - prefix[j] + z[0]) for j in range(1, b[i] + 1))
        worst = max(worst, abs(params.a[i - 1] - acc))
    return worst


def speed(g: DCGraph, params: Params) -> Number:
    """Front speed on the region of g: the reciprocal of z_1."""
    return 1 / solve_system(g, params)[0]


def _zsum(z: Sequence[Number], i: int, j: int) -> Number:
    return sum(z[i:j])


def in_region(g: DCGraph, params: Params, z: Sequence[Number] | None = None) -> bool:
    """Exact membership test: strict > on maximal edges, <= on addable ones."""
    ok, _ = in_region_report(g, params, 0, z)
    return ok


def in_region_report(
    g: DCGraph, params: Params, tol: Number, z: Sequence[Number] | None = None
) -> tuple[bool, frozenset[Edge]]:
    """Membership with wall flags: gaps within tol * z_1 of zero are
    flagged; a flagged maximal edge fails (walls belong to the side
    without the edge), a flagged addable pair passes."""
    if z is None:
        z = solve_system(g, params)
    return _region_gaps(g, z, tol)[:2]


def _region_gaps(g: DCGraph, z: Sequence[Number], tol: Number) -> tuple[bool, frozenset[Edge], Number]:
    """in_region_report's verdict and flags, plus the violation: the
    largest gap on the wrong side of its wall (0 inside the region)."""
    z1 = z[0]
    tau = tol * z1
    flags = set()
    ok = True
    violation = 0
    for (i, j) in maximal_edges(g):
        gap = z1 - _zsum(z, i, j)
        violation = max(violation, -gap)
        if abs(gap) <= tau:
            flags.add((i, j))
            ok = False
        elif not gap > 0:
            ok = False
    for (i, j) in addable_edges(g):
        gap = z1 - _zsum(z, i, j)
        violation = max(violation, gap)
        if abs(gap) <= tau:
            flags.add((i, j))
        elif gap > 0:
            ok = False
    return ok, frozenset(flags), violation


@dataclass(frozen=True)
class RegionReport:
    graph: DCGraph
    dyck: DyckPath
    z: tuple[Number, ...]
    speed: Number
    verified: bool
    boundary_flags: frozenset[Edge] = field(default_factory=frozenset)
    ambiguous: bool = False

    @property
    def finite_time_absorption(self) -> bool:
        """Complete stationary graph: the regime is reached in finite time."""
        return len(self.graph.edges) == len(all_pairs(self.graph.n))


def _scan(candidates: Iterable[tuple[int, DCGraph]], params: Params, tol: Number) -> RegionReport:
    """Solve each (canonical index, graph) candidate once, in the given
    order, and report the first whose region holds the parameters.

    If none does (float only: every candidate is within tol of a wall),
    report the least-violating graph, ties to the lower canonical index,
    as unverified and ambiguous: an explicit wall result.
    """
    best = None
    for index, g in candidates:
        z = solve_system(g, params)
        ok, flags, violation = _region_gaps(g, z, tol)
        if ok:
            break
        if best is None or (violation, index) < best[0]:
            best = (violation, index), g, z, flags
    else:
        _, g, z, flags = best
    return RegionReport(
        graph=g,
        dyck=dc_to_dyck(g),
        z=z,
        speed=1 / z[0],
        verified=ok,
        boundary_flags=flags,
        ambiguous=not ok or (not params.is_exact and bool(flags)),
    )


def find_region(params: Params, tol: Number = 0) -> tuple[DCGraph, frozenset[Edge]] | None:
    """Scan the canonical enumeration for the (unique) region containing
    the parameters.  Returns None if no candidate verifies, which can only
    happen in floating point within tol of a wall."""
    report = _scan(enumerate(enumerate_dc(params.n)), params, tol)
    return (report.graph, report.boundary_flags) if report.verified else None


def _proposal_first(proposal: DCGraph) -> Iterator[tuple[int, DCGraph]]:
    """The proposal, then the other graphs by edge-set distance from it,
    equal distances in canonical order (the sort is stable); the sort runs
    only if the proposal fails."""
    yield graph_index(proposal), proposal
    ranked = sorted(
        enumerate(enumerate_dc(proposal.n)), key=lambda c: len(c[1].edges ^ proposal.edges)
    )
    yield from ranked[1:]  # ranked[0] is the proposal, at distance 0


def _gap_edges(z: Sequence[Number], margin: Number) -> frozenset[Edge]:
    """The pairs (i, j) whose sub-pairs (i', j') all have
    z_1 - (z_{i'+1} + ... + z_{j'}) > margin: the largest downward-closed
    set of pairs above the margin, which is all of them when z > 0."""
    up = {(i, j) for (i, j) in all_pairs(len(z)) if z[0] - _zsum(z, i, j) > margin}
    return frozenset(
        (i, j) for (i, j) in up
        if all((i2, j2) in up for i2 in range(i, j) for j2 in range(i2 + 1, j + 1))
    )


def _walk(params: Params) -> tuple[Number, ...]:
    """Newton's method on the piecewise-linear stationarity equations.

    From the empty graph, solve the current graph's system and move to the
    graph whose walls that solution lies inside.  Returns the solution of
    the first graph whose region holds the parameters strictly, or the
    last one solved once the walk comes back to a graph.  Each step costs
    one closed-form solve, however slowly the fixed-point iteration would
    contract (it needs about q_N/q_1 steps).
    """
    g, seen = DCGraph.empty(params.n), set()
    while True:
        z = solve_system(g, params)
        if g in seen or _region_gaps(g, z, 0)[0]:
            return z
        seen.add(g)
        g = DCGraph(params.n, _gap_edges(z, 0))


def classify(params: Params, tol: Number = 1e-9) -> RegionReport:
    """Locate the region of the parameters: walk to it in floating point,
    confirm the graph the walk's solution proposes with the closed form,
    fall back to a search ordered by edge-set distance.

    Rational parameters give an exactly confirmed report.  In floating
    point, any gap within the relative tolerance of zero makes the report
    ambiguous (an explicit wall result, never a silent guess).
    """
    exact = params.is_exact
    z = _walk(params.as_float() if exact else params)
    proposal = DCGraph(params.n, _gap_edges(z, max(tol, 1e-12) * z[0]))
    return _scan(_proposal_first(proposal), params, 0 if exact else tol)


@dataclass(frozen=True)
class BoundaryGap:
    gap: Number
    rescaled: Number


def boundary_gap(g: DCGraph, params: Params, e: Edge) -> BoundaryGap:
    """Signed distance z_1 - (z_{i+1} + ... + z_j) to the wall carried by
    e, plus its rescaled variant whose denominator strips the z_1 feedback;
    both vanish together and share their strict sign."""
    i, j = e
    if e not in maximal_edges(g) and e not in addable_edges(g):
        raise ValueError(f"{e} is not a wall edge (neither maximal nor addable) for this graph")
    n, q = params.n, params.q
    b, _, big = _tables(g, params)
    z = solve_system(g, params)
    zij = _zsum(z, i, j)
    denom = 1 + sum(
        big[k][l] * (q[b[l]] - q[b[l - 1]]) / q[b[l - 1]]
        for k in range(i + 1, j + 1)
        for l in range(k, n + 1)
    )
    rescaled_z = z[0] + (zij - z[0]) / denom
    return BoundaryGap(z[0] - zij, z[0] - rescaled_z)


def check_continuity(
    params_on_wall: Params, g1: DCGraph, g2: DCGraph, tol: Number
) -> bool:
    """At a shared wall point the two closed-form sojourn vectors agree."""
    if g1 == g2:
        return True
    if not regions_adjacent(g1, g2).adjacent:
        raise ValueError("graphs are not adjacent; their regions share no wall")
    z1 = solve_system(g1, params_on_wall)
    z2 = solve_system(g2, params_on_wall)
    return all(abs(x - y) <= tol for x, y in zip(z1, z2))


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass
class SweepGrid:
    """Grid over one or two coordinates of (a, p); every other coordinate
    is fixed to a number or linked to an axis by a tiny expression
    ("0.4", "1-p1", "2*a1", "0.1+a1")."""

    n: int
    fixed: dict[str, object]
    axes: list[tuple[str, list[Number]]]

    def coordinate_names(self) -> list[str]:
        return [f"a{i}" for i in range(1, self.n + 1)] + [f"p{i}" for i in range(1, self.n + 1)]

    def validate(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ParamsError("sweep needs one or two axes")
        names = set(self.fixed) | {name for name, _ in self.axes}
        expected = set(self.coordinate_names())
        if names != expected:
            raise ParamsError(
                f"sweep coordinates {sorted(names)} must cover exactly {sorted(expected)}"
            )


def _resolve(expr: object, env: dict[str, Number], exact: bool) -> Number:
    if not isinstance(expr, str):
        return expr
    for op in ("-", "+", "*"):
        head, sep, tail = expr.partition(op)
        if sep and tail.strip() in env:
            c = parse_number(head, exact)
            v = env[tail.strip()]
            return c - v if op == "-" else c + v if op == "+" else c * v
    if expr.strip() in env:
        return env[expr.strip()]
    return parse_number(expr, exact)


@dataclass(frozen=True)
class SweepRecord:
    coords: tuple[tuple[str, Number], ...]
    graph_id: int | None
    dyck: str
    speed: Number | None
    on_wall: bool
    error: str = ""


def _sweep_point(grid: SweepGrid, exact: bool, tol: Number, env: dict[str, Number]) -> SweepRecord:
    coords = tuple((name, env[name]) for name, _ in grid.axes)
    values = dict(env)
    try:
        for name, expr in grid.fixed.items():
            values[name] = _resolve(expr, env, exact)
        a = tuple(values[f"a{i}"] for i in range(1, grid.n + 1))
        p = tuple(values[f"p{i}"] for i in range(1, grid.n + 1))
        params = Params(a, p)
        report = classify(params, tol=tol)
        return SweepRecord(
            coords=coords,
            graph_id=graph_index(report.graph),
            dyck=report.dyck.word,
            speed=report.speed,
            on_wall=bool(report.boundary_flags),
        )
    except (ParamsError, ValueError) as exc:
        return SweepRecord(coords=coords, graph_id=None, dyck="", speed=None, on_wall=False, error=str(exc))


def sweep(
    grid: SweepGrid, *, exact: bool = False, tol: Number = 1e-9, jobs: int = 1
) -> list[SweepRecord]:
    """Classify every grid point, row-major over the axes, deterministic
    output order regardless of the worker count."""
    grid.validate()
    envs: list[dict[str, Number]] = []
    if len(grid.axes) == 1:
        name, values = grid.axes[0]
        envs = [{name: v} for v in values]
    else:
        (n0, vs0), (n1, vs1) = grid.axes
        envs = [{n0: v0, n1: v1} for v0 in vs0 for v1 in vs1]
    return parallel_map(partial(_sweep_point, grid, exact, tol), envs, jobs)
