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

Each b map's solve is read from a cached plan of its nonzero terms; once
a b map has been solved _COMPILE_AFTER times, the plan is compiled into
a straight-line Python function that computes the same terms in the same
order, so hot graphs skip the interpretation and cold ones the compile.
The same compile gives the b map a walk step, the solve followed by its
wall test (that of _region_gaps at tol 0), and the walk finds the next b
map with a function generated once per N (_gap_b_of_n).  One helper,
_step, runs a b map's step on either tier, for the walk and for the
conjecture probe's test of a sample against its target graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Sequence

from .combinatorics import (
    DCGraph,
    DyckPath,
    Edge,
    _cached_graph_of_b,
    dc_to_dyck,
    enumerate_dc,
    graph_index,
    regions_adjacent,
)
from ._codegen import compile_functions
from ._parallel import parallel_map
from .params import Number, Params, ParamsError, parse_number


# solves a plan interprets before it compiles its solve and walk step:
# the compile (0.3 ms at N = 3, 1.0 ms at N = 8) pays for itself after
# 34-40 solves at N = 3..12 on the solve alone, measured on random
# graphs, and sooner on the b maps the walk steps on
_COMPILE_AFTER = 32


@dataclass(eq=False, slots=True)
class _Plan:
    """Index structure of a graph's linear system (see _plan_b), and the
    solve and walk step compiled from it once the b map is hot (see
    _compile)."""

    b: tuple[int, ...]  # b map, index 0..N
    # i -> (h, mid) per edge (i, h) whose weight
    # (q[b(i)] - q[mid]) / q[b(i-1)] is not an exact zero, h increasing
    gammas: tuple[tuple[tuple[int, int], ...], ...]
    # i -> (j, heads) per j > i reachable from i, j increasing: the h of
    # gammas[i] with h == j or j reachable from h, increasing
    paths: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    rated: tuple[tuple[int, ...], ...]  # i -> i and the j of paths[i] with b(j) != b(j-1)
    solves: int = 0  # solves interpreted so far
    kernel: Callable | None = None  # solve(q, d) of _compile(self), after _COMPILE_AFTER solves
    step: Callable | None = None  # step(q, d, tol) of _compile(self), compiled with kernel


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

    solve_system reads the plan term by term for its first _COMPILE_AFTER
    solves, then runs its kernel: the same terms written out as Python
    source and compiled once (see _compile), with the walk's step.  Both
    live on the plan, so they leave this cache with it.
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


def _kernel_source(plan: _Plan) -> str:
    """Python source of solve(q, d) -> z for the plan's graph, and of its
    walk step step(q, d, tol) (see _step_source).  The solve has one
    statement per edge weight g{i}_{h}, path weight w{i}_{j}, gap sum s{i}
    and rate sum r{i}.  The terms are those of _path_weights and
    _interpret's gap_sum and rate_sum, in the same order, each computed as
    they compute it, with two rewrites that move no bit: a path weight of
    1 drops out of its product (x * 1 and 1 * x are x, in value and type,
    for a float or a Fraction), and each rate difference
    q[b(j)] - q[b(j-1)] is a local e{j}, computed once.  Every sum of two
    or more terms is one sum((t1, t2, ...)) call, never t1 + t2, so it
    rounds as the interpreted sum() does on every Python version,
    compensated (3.12+) or not; a single term stands alone, since
    sum((t,)) is 0 + t, which is t unless t is -0.0, and no term is: each
    is a product or quotient of values >= 0 (see _plan_b).  Only the
    plan's integer indices reach the text."""
    b = tuple(map(int, plan.b))
    n = len(b) - 1
    gammas, paths, rated = plan.gammas, plan.paths, plan.rated

    def total(terms: list[str]) -> str:
        if len(terms) > 1:
            return f"sum(({', '.join(terms)},))"
        return terms[0] if terms else "0"  # sum((t,)) is t, sum(()) the int 0

    lines = ["def solve(q, d):",
             f"    {''.join(f'q{k}, ' for k in range(n + 1))}= q",
             f"    {''.join(f'd{k}, ' for k in range(1, n + 1))}= d"]
    for i in range(n, 0, -1):
        for h, mid in gammas[i]:
            lines.append(f"    g{i}_{h} = (q{b[i]} - q{int(mid)}) / q{b[i - 1]}")
        for j, heads in paths[i]:
            lines.append(f"    w{i}_{j} = " + total([f"g{i}_{h}" if h == j else f"g{i}_{h} * w{h}_{j}"
                                                     for h in heads]))
    for j in sorted({j for row in rated for j in row}):
        lines.append(f"    e{j} = q{b[j]} - q{b[j - 1]}")
    for i in range(1, n + 1):
        gaps = [f"d{i} / q{b[i - 1]}"] + [f"w{i}_{j} * d{j} / q{b[j - 1]}" for j, _ in paths[i]]
        lines.append(f"    s{i} = " + total(gaps))
        rates = [f"e{j} / q{b[j - 1]}" if j == i else f"w{i}_{j} * e{j} / q{b[j - 1]}" for j in rated[i]]
        lines.append(f"    r{i} = " + total(rates))
    lines.append("    z1 = s1 / (1 + r1)")
    lines.append(f"    return (z1, {''.join(f's{i} - z1 * r{i}, ' for i in range(2, n + 1))})")
    return "\n".join(lines) + "\n" + _step_source(b)


def _step_source(b: tuple[int, ...]) -> str:
    """Python source of step(q, d, tol) -> (z, gaps, clear), the walk's
    step on the graph of b map b: z = solve(q, d), then the wall test of
    _region_gaps(g, z, 0) over DCGraph.walls, in its order, each gap as
    _region_gaps sums it (see _gap_source), stopping at the first wall on
    the wrong side.  gaps is None when the region does not hold, else the
    wall gaps, from which the caller reads the exact-zero flags.

    clear says the verdict holds by the margin max(tol, 1e-12) * z1, and
    is False whenever tol is None: only a float walk passes a tol, and an
    exact one never computes the float margin.

    Inside (gaps () and clear True): every z_i >= 0, every maximal gap >
    the margin and every addable gap < -tol * z1.  Then _region_gaps(g,
    z, tol) verifies without flags, and _gap_b_of_n(N)(z, margin) is b:
    an addable pair fails the margin, and a sub-pair of a maximal edge
    sums a part of its nonnegative terms, so its gap is no smaller.  (A
    float sum of nonnegative terms does not grow when terms are left out:
    so it is for the left-to-right sum of Python <= 3.11, and, but for a
    last-bit rounding, for the compensated sum of 3.12+; the tests check
    the claim.)

    Outside (gaps None and clear True): some wall is on the wrong side by
    more than the margin, a maximal gap < -margin or an addable gap >
    margin (see _clear_outside; the walls before the first wrong one are
    on the right side, so the test starts there).  As z_1 >= 0 for every
    Params (a ratio of sums of nonnegative terms), the margin is >= tol *
    z1, so that wall fails _region_gaps(g, z, tol) unflagged."""
    n = len(b) - 1
    walls = _cached_graph_of_b(b).walls
    zs = ", ".join(f"z{k}" for k in range(1, n + 1))
    lines = ["def step(q, d, tol, solve=solve):",
             "    z = solve(q, d)",
             f"    {zs}, = z"]
    for k, (i, j, is_maximal) in enumerate(walls):
        lines.append(f"    x{k} = {_gap_source(i, j)}")
        lines.append(f"    if {'not ' if is_maximal else ''}x{k} > 0:")
        out = f"x{k} < -max(tol, 1e-12) * z1" if is_maximal else f"x{k} > max(tol, 1e-12) * z1"
        if k + 1 < len(walls):
            out += f" or outside(walls[{k + 1}:], z, tol)"
        lines.append(f"        return z, None, tol is not None and ({out})")
    tests = [f"z{k} >= 0" for k in range(1, n + 1)]
    tests += [f"x{k} > margin" if is_maximal else f"x{k} < low" for k, (_, _, is_maximal) in enumerate(walls)]
    lines += ["    if tol is not None:",
              "        margin, low = max(tol, 1e-12) * z1, -tol * z1",
              f"        if {' and '.join(tests)}:",
              "            return z, (), True",
              f"    return z, ({''.join(f'x{k}, ' for k in range(len(walls)))}), False"]
    return "\n".join(lines) + "\n"


def _compile(plan: _Plan) -> tuple[Callable, Callable]:
    """The plan's solve and walk step: _kernel_source compiled once."""
    return compile_functions(_kernel_source(plan), f"<solve kernel of b map {plan.b}>", "solve", "step",
                             walls=_cached_graph_of_b(plan.b).walls, outside=_clear_outside)


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
    ValueError unless g and params have the same N.

    The sums run over the graph's plan: O(N + nonzero path-weight terms)
    per call, each term (v * d) / q as in the dense formula, in the same
    order, the exact zeros left out (see _plan_b for why no bit changes).
    A b map's first _COMPILE_AFTER solves read the plan term by term; the
    later ones run its compiled kernel, which computes the same terms in
    the same order, so the two give the same bits.
    """
    plan = _plan_b(g.b)
    q, d = params.q, params.d
    if len(q) != len(plan.b):
        raise ValueError(f"graph on {g.n} vertices, parameters for N = {params.n}")
    return _solve(plan, q, d)


def _solve(plan: _Plan, q: Sequence[Number], d: Sequence[Number]) -> tuple[Number, ...]:
    """The plan's solve for rates q and gaps d of its N: interpreted for
    its first _COMPILE_AFTER calls, then compiled (with the walk step)
    and run as its kernel."""
    kernel = plan.kernel
    if kernel is None:
        if plan.solves < _COMPILE_AFTER:
            plan.solves += 1
            return _interpret(plan, q, d)
        plan.kernel, plan.step = _compile(plan)
        kernel = plan.kernel
    return kernel(q, d)


def _step(plan: _Plan, q: Sequence[Number], d: Sequence[Number], tol: Number | None) -> tuple[tuple, tuple | None, bool]:
    """The walk step (z, gaps, clear) on the plan's graph, as _step_source
    defines it: the compiled step once the plan has one, else _solve (which
    interprets, or compiles on the call that makes the plan hot) and
    _wall_test."""
    step = plan.step
    if step is not None:
        return step(q, d, tol)
    return _wall_test(_cached_graph_of_b(plan.b).walls, _solve(plan, q, d), tol)


def _wall_test(walls: tuple, z: tuple, tol: Number | None) -> tuple[tuple, tuple | None, bool]:
    """The compiled step's wall test in Python, for a plan not yet
    compiled: (z, gaps, False) when _region_gaps(g, z, 0) holds, else
    (z, None, clear) with clear outside as the step computes it.  It never
    reports clear inside, so with every b map cold, classify takes its
    full check of every proposal (the tests compare it with the shortcut
    a clear walk takes)."""
    z1 = z[0]
    gaps = []
    for k, (i, j, is_maximal) in enumerate(walls):
        gap = z1 - sum(z[i:j])
        if (gap > 0) != is_maximal:
            return z, None, tol is not None and _clear_outside(walls[k:], z, tol)
        gaps.append(gap)
    return z, tuple(gaps), False


def _clear_outside(walls: tuple, z: tuple, tol: Number) -> bool:
    """Some wall (i, j, is_maximal) of walls is on the wrong side of z by
    more than the margin max(tol, 1e-12) * z_1: a maximal gap below
    -margin or an addable gap above it, each gap as _region_gaps sums it."""
    z1 = z[0]
    margin = max(tol, 1e-12) * z1
    for i, j, is_maximal in walls:
        gap = z1 - sum(z[i:j])
        if gap < -margin if is_maximal else gap > margin:
            return True
    return False


def _interpret(plan: _Plan, q: Sequence[Number], d: Sequence[Number]) -> tuple[Number, ...]:
    """solve_system read from the plan term by term."""
    b, rated = plan.b, plan.rated
    rows = _path_weights(plan, q)

    def gap_sum(i: int) -> Number:
        return sum(v * d[j - 1] / q[b[j - 1]] for j, v in rows[i].items())

    def rate_sum(i: int) -> Number:
        row = rows[i]
        return sum(row[j] * (q[b[j]] - q[b[j - 1]]) / q[b[j - 1]] for j in rated[i])

    z1 = gap_sum(1) / (1 + rate_sum(1))
    z = [z1]
    for i in range(2, len(b)):
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
    z: tuple[Number, ...]
    verified: bool
    boundary_flags: frozenset[Edge] = field(default_factory=frozenset)
    ambiguous: bool = False

    @property
    def dyck(self) -> DyckPath:
        """Dyck path of the region's graph."""
        return dc_to_dyck(self.graph)

    @property
    def speed(self) -> Number:
        """Front speed: the reciprocal of z_1."""
        return 1 / self.z[0]

    @property
    def finite_time_absorption(self) -> bool:
        """Complete stationary graph: the regime is reached in finite time.
        A DC graph is complete iff it holds (1, N), that is b(1) = N."""
        return self.graph.b[1] == self.graph.n


def _report(params: Params, g: DCGraph, z: tuple, ok: bool, flags: frozenset[Edge]) -> RegionReport:
    """The report of graph g from its solution z and wall test.  A float
    report is ambiguous unless it verifies without wall flags, and a
    float z outside the float range raises ValueError."""
    if not params.is_exact:
        float_solution(z)
    ambiguous = not ok or (not params.is_exact and bool(flags))
    return RegionReport(graph=g, z=z, verified=ok, boundary_flags=flags, ambiguous=ambiguous)


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


def _gap_source(i: int, j: int) -> str:
    """Source of the gap of pair (i, j) from the locals z1, z2, ...:
    z1 - sum((z{i+1}, ..., z{j},)), one sum per pair, as _region_gaps
    sums z[0] - sum(z[i:j]), so the bits are its own on every Python
    version.  A single term is subtracted as it is: sum((x,)) is x but
    for -0.0, whose sum is +0.0, so the gap can differ only in the sign
    of a zero, which no comparison sees."""
    if j == i + 1:
        return f"z1 - z{j}"
    return f"z1 - sum(({''.join(f'z{m}, ' for m in range(i + 1, j + 1))}))"


def _gap_b_source(n: int) -> str:
    """Python source of gap_b(z, margin) at N = n: row i of the b map is
    the local b{i}, which starts at i and moves to k while b{i} == k - 1
    < b{i+1} and the gap of (i, k) is above the margin, for k = i+1..N
    in turn.  So the gaps summed are the loop's, in its order, each as
    the wall tests sum it (see _gap_source).  One flat if per pair and no
    nesting, so any N compiles: the tokenizer allows at most 100 indent
    levels."""
    lines = ["def gap_b(z, margin):",
             f"    {''.join(f'z{k}, ' for k in range(1, n + 1))}= z",
             f"    b{n} = {n}"]
    for i in range(n - 1, 0, -1):
        lines.append(f"    b{i} = {i}")
        for k in range(i + 1, n + 1):
            gap = f"{_gap_source(i, k)} > margin"
            # b{i} == i < b{i+1} always holds for k = i + 1
            lines.append(f"    if {gap if k == i + 1 else f'b{i} == {k - 1} < b{i + 1} and {gap}'}:")
            lines.append(f"        b{i} = {k}")
    lines.append(f"    return (1, {''.join(f'b{i}, ' for i in range(1, n + 1))})")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _gap_b_of_n(n: int) -> Callable:
    """gap_b(z, margin) for z of length n, _gap_b_source compiled once:
    the b map of the largest downward-closed set of pairs (i, j) with
    z_1 - (z_{i+1} + ... + z_j) > margin (all pairs when z > 0).  A pair
    is in that set when it is above the margin and its immediate children
    (i+1, j) and (i, j-1) are (every sub-pair is reached from it by such
    steps), so row i is the run of pairs above the margin from (i, i+1)
    up to at most b(i+1).  Going down i, only those pairs are summed: at
    most O(N^2) gaps, each z[0] - sum(z[i:j]) as the wall tests sum it."""
    gap_b, = compile_functions(_gap_b_source(n), f"<next b map, N = {n}>", "gap_b")
    return gap_b


def _walk(
    q: Sequence[Number], d: Sequence[Number], b: tuple[int, ...] | None = None, tol: Number | None = None
) -> tuple[DCGraph, tuple, frozenset[Edge] | None, bool]:
    """Newton's method on the piecewise-linear stationarity equations, for
    the point with cumulative rates q and gaps d (those of Params, or
    values with the same bits: no Params is needed).

    From the graph of b map b (the empty graph by default), solve the
    current graph's system and move to the graph whose walls that
    solution lies inside.  Returns the first graph whose region holds the
    parameters, with its solution, the flags of its wall test (those of
    _region_gaps at tol 0: the gaps that are exactly 0) and whether that
    test held clear at tol, or, once the walk comes back to a b map, that
    graph and its solution with flags None.
    Each step costs one closed-form solve, however slowly the fixed-point
    iteration would contract (it needs about q_N/q_1 steps).  Exact walks
    from random start graphs at N = 2..12 never came back to a b map, but
    no proof rules it out: z_1 is no potential, since from some starts it
    rises after the first step (the tests pin one).  So the seen set stays.

    The walk runs on b maps, which fix the graphs: a step costs one
    solve, O(N) wall tests and at most O(N^2) pair sums, and its plan
    comes from a cache keyed by the b map.  Each step is one call of
    _step, which also tells whether the test holds clear at tol (a float
    walk passes its tol, an exact one None); a cold b map never reports
    clear inside.  The next b map is one call of _gap_b_of_n(N), looked
    up once.
    """
    n = len(d)
    if b is None:
        b = (1, *range(1, n + 1))
    gap_b = _gap_b_of_n(n)
    seen = set()
    while b not in seen:
        z, gaps, clear = _step(_plan_b(b), q, d, tol)
        if gaps is not None:
            g = _cached_graph_of_b(b)
            return g, z, frozenset(w[:2] for w, x in zip(g.walls, gaps) if x == 0), clear
        seen.add(b)
        b = gap_b(z, 0)
    return _cached_graph_of_b(b), _solve(_plan_b(b), q, d), None, False


def _exact_walk(params: Params, b: tuple[int, ...] | None) -> tuple[DCGraph, tuple, frozenset[Edge]]:
    """The region of exact parameters, its solution and wall flags: the
    walk from b map b (None: the empty graph), or find_region should the
    walk come back to a b map (none is known to, none proven not to)."""
    g, z, flags, _ = _walk(params.q, params.d, b)
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
    parameters are walked on exactly from the proposal, or from the empty
    graph when they have no float image (a value beyond the float range,
    or thresholds that round to equal floats): the report is the graph
    where the exact wall test holds, verified with zero tolerance.
    A float report is the proposal when that verifies at tol (reusing the
    walk's solution when the walk ended on it); otherwise it names the
    region of the input's exact binary value, with that graph's float
    solution and wall flags.  In floating point, any gap within the
    relative tolerance of zero makes the report ambiguous (an explicit
    wall result, never a silent guess).  tol must be finite and >= 0
    (ValueError otherwise).

    When the float walk ends clear of every wall (see _walk), the
    proposal is the walk's graph and, for float input, the report is that
    graph verified without flags, with no further pair sum or wall test.
    cyclic.conjecture_probe walks only the samples that its target
    graph's step (see _step) does not put clearly outside that graph, and
    reads the report of such a sample straight off the walk of its
    (q, d) row; where the walk does not end clear, it passes that walk to
    _settle, as classify does, so each sample is walked at most once.
    The tests hold it to a probe that classifies every sample.
    """
    _check_tol(tol)
    try:
        image = params.as_float() if params.is_exact else params
    except (OverflowError, ParamsError):  # exact values with no float image
        g, z, flags = _exact_walk(params, None)
        return _report(params, g, z, True, flags)
    g, z, _, clear = _walk(image.q, image.d, tol=tol)
    return _settle(params, tol, g, z, clear)


def _settle(params: Params, tol: Number, g: DCGraph, z: tuple, clear: bool) -> RegionReport:
    """classify's report from its float walk: g and z where the walk of
    the float image ended, and whether it ended clear at tol."""
    proposal = g.b if clear else _gap_b_of_n(len(z))(z, max(tol, 1e-12) * z[0])
    if params.is_exact:
        g, z, flags = _exact_walk(params, proposal)
        return _report(params, g, z, True, flags)
    if clear:
        return _report(params, g, z, True, frozenset())
    if proposal != g.b:
        g = _cached_graph_of_b(proposal)
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
    names = [name for name, _ in grid.axes]
    envs = [dict(zip(names, point)) for point in product(*(values for _, values in grid.axes))]
    return parallel_map(partial(_sweep_point, grid, exact, tol), envs, jobs)
