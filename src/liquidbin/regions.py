"""Per-graph linear systems, closed-form front speeds, and the partition
of parameter space into Catalan-indexed regions.

For a DC graph G, the sojourn vector z solves a triangular system whose
coefficients are path weights in G.  The parameters lie in the region of
G exactly when z_1 > z_{i+1} + ... + z_j for the maximal edges (i, j) of
G and z_1 <= z_{i+1} + ... + z_j for its addable pairs.  classify finds
that region by one walk from graph to graph (Newton's method on the
stationarity equations): in floating point to propose a graph, then in
the point's own arithmetic to confirm it, and it reports near-equalities
as wall flags instead of guessing.  find_region, the exhaustive scan of
every graph, is the reference the tests compare it with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

from .combinatorics import (
    DCGraph,
    DyckPath,
    Edge,
    all_pairs,
    b_to_dc,
    dc_to_dyck,
    enumerate_dc,
    graph_index,
    regions_adjacent,
)
from ._parallel import parallel_map
from .params import Number, Params, ParamsError, parse_number


class _Plan(NamedTuple):
    """Index structure of a graph's linear system (see _plan_b)."""

    b: tuple[int, ...]  # b map, index 0..N
    # i -> (h, mid) per edge (i, h) whose weight
    # (q[b(i)] - q[mid]) / q[b(i-1)] is not an exact zero, h increasing
    gammas: tuple[tuple[tuple[int, int], ...], ...]
    # i -> (j, heads) per j > i reachable from i, j increasing: the h of
    # gammas[i] with h == j or j reachable from h, increasing
    paths: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    rated: tuple[tuple[int, ...], ...]  # i -> i and the j of paths[i] with b(j) != b(j-1)


@lru_cache(maxsize=4096)
def _shared(t: tuple) -> tuple:
    """One instance per value: plans share their small tuples, most of
    which recur across graphs."""
    return t


@lru_cache(maxsize=4096)
def _plan_b(b: tuple[int, ...]) -> _Plan:
    """The one source of path weights: which can be nonzero, from which terms.

    Built once per b map, which fixes the graph (the walk moves from b map
    to b map), so a solve keeps only the arithmetic.  The terms left
    out are exact zeros whatever the parameters: the weight of edge
    (i, h) is (q_{b(i)} - q_{max(h-1, b(i-1))}) / q_{b(i-1)}, which
    vanishes when the two indices agree (q is finite: Params rejects a
    q_N that overflows), and a path weight with no path behind it is a
    sum of products with such zeros.  On a DC graph b is nondecreasing,
    so every weight is >= 0 and no partial sum is -0.0; adding +0.0
    changes no bit of a float sum, compensated (Python 3.12+) or not.
    Skipping those terms leaves every result bit-identical to the dense
    sums, except where a weight overflows to inf: there the dense sums
    held 0 * inf = nan terms, and a solution that already holds nan or
    inf can differ in its other components.
    """
    n = len(b) - 1
    gammas: list = [()] * (n + 1)
    paths: list = [()] * (n + 1)
    rated: list = [()] * (n + 1)
    reach: list[tuple[int, ...]] = [()] * (n + 1)
    for i in range(n, 0, -1):
        mids = ((h, max(h - 1, b[i - 1])) for h in range(i + 1, b[i] + 1))
        gammas[i] = _shared(tuple(_shared(e) for e in mids if e[1] != b[i]))
        heads: dict[int, list[int]] = {}
        for (h, _) in gammas[i]:
            for j in (h, *reach[h]):
                heads.setdefault(j, []).append(h)
        reach[i] = tuple(sorted(heads))
        paths[i] = _shared(tuple(_shared((j, _shared(tuple(heads[j])))) for j in reach[i]))
        rated[i] = _shared(tuple(j for j in (i, *reach[i]) if b[j] != b[j - 1]))
    return _Plan(b, tuple(gammas), tuple(paths), tuple(rated))


def _path_weights(plan: _Plan, q: Sequence[Number]) -> list[dict[int, Number]]:
    """Row i maps i to 1 and each j reachable from i to the total weight
    of the paths from i to j, in increasing j: the sums of the
    first-step decomposition, over the plan's terms only."""
    b = plan.b
    rows: list[dict[int, Number]] = [{}] * len(b)
    for i in range(len(b) - 1, 0, -1):
        top, bot = q[b[i]], q[b[i - 1]]
        gam = {h: (top - q[mid]) / bot for (h, mid) in plan.gammas[i]}
        row = {i: 1}
        for j, heads in plan.paths[i]:
            row[j] = sum(gam[h] * rows[h][j] for h in heads)
        rows[i] = row
    return rows


def _edge_weight(b: Sequence[int], q: Sequence[Number], i: int, h: int) -> Number:
    """Weight of edge (i, h) of the graph with b map b (index 0..N)."""
    return (q[b[i]] - q[max(h - 1, b[i - 1])]) / q[b[i - 1]]


def gamma(g: DCGraph, params: Params, e: Edge) -> Number:
    """Weight of edge (i, j): (q_{b(i)} - q_{max(j-1, b(i-1))}) / q_{b(i-1)}."""
    if e not in g.edges:
        raise ValueError(f"{e} is not an edge of the graph")
    return _edge_weight(g.b, params.q, *e)


def big_gamma(g: DCGraph, params: Params, i: int, j: int) -> Number:
    """Total weight of the directed paths from i to j (1 when i == j); with
    none, the dense sum's zero: q_0 if b(i) > i, else the int 0."""
    if not 1 <= i <= j <= params.n:
        raise ValueError("need 1 <= i <= j <= N")
    return _path_weights(_plan_b(g.b), params.q)[i].get(j, params.q[0] if g.b[i] > i else 0)


def solve_system(g: DCGraph, params: Params) -> tuple[Number, ...]:
    """Closed-form solution of the per-graph linear system.

    z_1 is a ratio of weighted gap sums; the remaining z_i follow from the
    triangular structure.  Exact when the parameters are Fractions.

    The sums run over the graph's plan: O(N + nonzero path-weight terms)
    per call, each term (v * d) / q as in the dense formula, in the same
    order, the exact zeros left out (see _plan_b for why no bit changes).
    """
    n, q, d = params.n, params.q, params.d
    plan = _plan_b(g.b)
    b, rated = plan.b, plan.rated
    rows = _path_weights(plan, q)

    def gap_sum(i: int) -> Number:
        return sum(v * d[j - 1] / q[b[j - 1]] for j, v in rows[i].items())

    def rate_sum(i: int) -> Number:
        row = rows[i]
        return sum(row[j] * (q[b[j]] - q[b[j - 1]]) / q[b[j - 1]] for j in rated[i])

    z1 = gap_sum(1) / (1 + rate_sum(1))
    z = [z1]
    for i in range(2, n + 1):
        z.append(gap_sum(i) - z1 * rate_sum(i))
    return tuple(z)


def solve_system_triangular(g: DCGraph, params: Params) -> tuple[Number, ...]:
    """Independent route: back-substitute the row-difference system with
    z_1 carried as an affine unknown (over every edge, zero weights
    included, not the plan's terms), then close the first row."""
    n, q, d = params.n, params.q, params.d
    b = g.b
    aff: dict[int, tuple[Number, Number]] = {}  # i -> (const, coeff of z1)
    for i in range(n, 0, -1):
        u = d[i - 1] / q[b[i - 1]]
        w = -(q[b[i]] - q[b[i - 1]]) / q[b[i - 1]]
        for j in range(i + 1, b[i] + 1):
            gam = _edge_weight(b, q, i, j)
            u = u + gam * aff[j][0]
            w = w + gam * aff[j][1]
        aff[i] = (u, w)
    z1 = aff[1][0] / (1 - aff[1][1])
    return tuple(aff[i][0] + aff[i][1] * z1 if i > 1 else z1 for i in range(1, n + 1))


def system_residual(g: DCGraph, params: Params, z: Sequence[Number]) -> Number:
    """Sup-norm residual of z in the untransformed linear system
    a_i = sum_{j <= b(i)} p_j ((z_1+...+z_i) - (z_1+...+z_j) + z_1)."""
    n, p = params.n, params.p
    b = g.b
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


def float_solution(z: Sequence[Number]) -> tuple[float, ...]:
    """z in floats; ValueError if a z_i or the speed 1/z_1 is not finite."""
    try:
        zf = tuple(map(float, z))
    except OverflowError:  # an exact z_i beyond the largest float
        zf = (math.inf,)
    if zf[0] != 0 and all(map(math.isfinite, (*zf, 1 / zf[0]))):
        return zf
    raise ValueError("the result does not fit the float range (each z_i and the speed 1/z_1 "
                     "must be finite, |x| < 1.8e308): use --exact")


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
    return _region_gaps(g, z, tol)


def _region_gaps(g: DCGraph, z: Sequence[Number], tol: Number) -> tuple[bool, frozenset[Edge]]:
    """in_region_report's verdict and flags for a solution z of g."""
    z1 = z[0]
    tau = tol * z1
    flags = set()
    ok = True
    for (i, j, is_maximal) in g.walls:
        gap = z1 - sum(z[i:j])
        if abs(gap) <= tau:
            flags.add((i, j))
            ok = ok and not is_maximal
        elif (gap > 0) != is_maximal:
            ok = False
    return ok, frozenset(flags)


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


def _report(params: Params, g: DCGraph, z: tuple, ok: bool, flags: frozenset[Edge]) -> RegionReport:
    """The report of graph g from its solution z and wall test.  A float
    report is ambiguous unless it verifies without wall flags, and a
    float z outside the float range raises ValueError."""
    if not params.is_exact:
        float_solution(z)
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
    """The exhaustive reference: solve every graph in canonical order and
    return the first whose region holds the parameters, with its wall
    flags.  Exact parameters lie in exactly one region; None, when no
    graph verifies, can only happen in floating point within tol of a
    wall."""
    for g in enumerate_dc(params.n):
        ok, flags = _region_gaps(g, solve_system(g, params), tol)
        if ok:
            return g, flags
    return None


def _gap_b(z: Sequence[Number], margin: Number) -> tuple[int, ...]:
    """b map of the largest downward-closed set of pairs (i, j) with
    z_1 - (z_{i+1} + ... + z_j) > margin: all pairs when z > 0.

    A pair is in that set when it is above the margin and its immediate
    children (i+1, j) and (i, j-1) are (every sub-pair is reached from it
    by such steps), so row i is the run of pairs above the margin from
    (i, i+1) up to at most b(i+1).  Going down i, only those pairs are
    summed: at most O(N^2) gaps, each z[0] - sum(z[i:j]) as the wall
    tests sum it.
    """
    n = len(z)
    b = [1] * (n + 1)
    b[n] = n
    for i in range(n - 1, 0, -1):
        j = i
        while j < b[i + 1] and z[0] - sum(z[i:j + 1]) > margin:
            j += 1
        b[i] = j
    return tuple(b)


def _holds(walls: Sequence[tuple[int, int, bool]], z: Sequence[Number]) -> frozenset[Edge] | None:
    """_region_gaps(g, z, 0) in one pass: None unless every maximal gap
    is > 0 and no addable gap is (stopping at the first wall on the
    wrong side), else the flags, the walls whose gap is exactly 0."""
    z1 = z[0]
    flags = []
    for (i, j, is_maximal) in walls:
        gap = z1 - sum(z[i:j])
        if (gap > 0) != is_maximal:
            return None
        if gap == 0:
            flags.append((i, j))
    return frozenset(flags)


def _walk(params: Params, b: tuple[int, ...] | None = None) -> tuple[DCGraph, tuple, frozenset[Edge] | None]:
    """Newton's method on the piecewise-linear stationarity equations.

    From the graph of b map b (the empty graph by default), solve the
    current graph's system and move to the graph whose walls that
    solution lies inside.  Returns the first graph whose region holds the
    parameters, with its solution and the flags of its wall test (see
    _holds), or, once the walk comes back to a b map, that graph and its
    solution with flags None.  Each step costs one closed-form solve,
    however slowly the fixed-point iteration would contract (it needs
    about q_N/q_1 steps).

    The walk runs on b maps, which fix the graphs: a step costs one
    solve, O(N) wall tests and at most O(N^2) pair sums (see _gap_b),
    and its graph and plan come from caches keyed by the b map.
    """
    if b is None:
        b = (1, *range(1, params.n + 1))
    seen = set()
    while True:
        g = b_to_dc(b)
        z = solve_system(g, params)
        if b in seen:
            return g, z, None
        flags = _holds(g.walls, z)
        if flags is not None:
            return g, z, flags
        seen.add(b)
        b = _gap_b(z, 0)


def _exact_walk(params: Params, b: tuple[int, ...]) -> tuple[DCGraph, tuple, frozenset[Edge]]:
    """The region of exact parameters, its solution and wall flags: the
    walk from b map b, or find_region should the walk come back to a b
    map (no termination proof is known for the walk)."""
    g, z, flags = _walk(params, b)
    if flags is None:
        g, flags = find_region(params)
        z = solve_system(g, params)
    return g, z, flags


def _check_tol(tol: Number) -> None:
    """A negative or nan tol would flag no wall, an infinite one every
    wall: only a finite tol >= 0 keeps wall detection meaningful."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def classify(params: Params, tol: Number = 1e-9) -> RegionReport:
    """Locate the region of the parameters by one walk (see _walk).

    A walk in floating point proposes the graph whose walls its last
    solution lies inside by more than max(tol, 1e-12) * z_1.  Rational
    parameters are walked on exactly from the proposal: the report is the
    graph where the exact wall test holds, verified with zero tolerance.
    A float report is the proposal when that verifies at tol (reusing the
    walk's solution when the walk ended on it); otherwise it names the
    region of the input's exact binary value, with that graph's float
    solution and wall flags.  In floating point, any gap within the
    relative tolerance of zero makes the report ambiguous (an explicit
    wall result, never a silent guess).  tol must be finite and >= 0
    (ValueError otherwise).
    """
    _check_tol(tol)
    exact = params.is_exact
    g, z, _ = _walk(params.as_float() if exact else params)
    proposal = _gap_b(z, max(tol, 1e-12) * z[0])
    if exact:
        g, z, flags = _exact_walk(params, proposal)
        return _report(params, g, z, True, flags)
    if proposal != g.b:
        g = b_to_dc(proposal)
        z = solve_system(g, params)
    ok, flags = _region_gaps(g, z, tol)
    if not ok:
        g = _exact_walk(params.as_exact(), proposal)[0]
        z = solve_system(g, params)
        ok, flags = _region_gaps(g, z, tol)
    return _report(params, g, z, ok, flags)


@dataclass(frozen=True)
class BoundaryGap:
    gap: Number
    rescaled: Number


def boundary_gap(g: DCGraph, params: Params, e: Edge) -> BoundaryGap:
    """Signed distance z_1 - (z_{i+1} + ... + z_j) to the wall carried by
    e, plus its rescaled variant whose denominator strips the z_1 feedback;
    both vanish together and share their strict sign."""
    i, j = e
    if e not in {w[:2] for w in g.walls}:
        raise ValueError(f"{e} is not a wall edge (neither maximal nor addable) for this graph")
    q = params.q
    plan = _plan_b(g.b)
    b, rows = plan.b, _path_weights(plan, q)
    z = solve_system(g, params)
    zij = sum(z[i:j])
    # one flat sum in the dense k-then-l order: per-k subtotals round differently
    denom = 1 + sum(
        rows[k][l] * (q[b[l]] - q[b[l - 1]]) / q[b[l - 1]]
        for k in range(i + 1, j + 1)
        for l in plan.rated[k]
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
    output order regardless of the worker count.  A bad tol raises here,
    before any point is classified."""
    grid.validate()
    _check_tol(tol)
    envs: list[dict[str, Number]] = []
    if len(grid.axes) == 1:
        name, values = grid.axes[0]
        envs = [{name: v} for v in values]
    else:
        (n0, vs0), (n1, vs1) = grid.axes
        envs = [{n0: v0, n1: v1} for v0 in vs0 for v1 in vs1]
    return parallel_map(partial(_sweep_point, grid, exact, tol), envs, jobs)
