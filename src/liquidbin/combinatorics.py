"""Downward-closed graphs on [1, n], their Dyck-path bijection, and the
nesting poset driving the region adjacency structure.

An edge (i, j), i < j, is *nested* in (i', j') when i' <= i < j <= j'.  A
graph is downward closed (DC) when its edge set is closed under taking
nested pairs.  DC graphs on n vertices are counted by the Catalan number
C_n and biject with Dyck words of length 2n.

This module owns the two representations of a DC graph and the only
conversions between them:

- the edge set ``DCGraph.edges``, the value: equality, hashing, repr
  and JSON are those of the edge set alone;
- the b map ``DCGraph.b``: b(i) is the farthest neighbour j > i of i, else
  i itself, with b(0) = 1.  It is nondecreasing and fixes the graph;
  ``b_to_dc`` gives the graph back.  Everything else is read from it: the
  walls ``DCGraph.walls``, the Dyck word (b(i) - b(i-1) up-steps, then a
  down-step, for each i), the enumeration order (decreasing b maps, one
  graph at a time in ``dc_graphs``), region adjacency, and the plans and
  jump orders of the other modules.

``b`` and ``walls`` are computed on first use and cached on the instance,
outside the dataclass fields.  ``regions_adjacent`` compares two b maps
row by row; ``is_antichain`` is the plain reference on arbitrary edge
sets and ``adjacency_mm_condition`` an independent second
characterization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Iterator

Edge = tuple[int, int]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def all_pairs(n: int) -> list[Edge]:
    """E_n: ordered pairs (i, j) with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def edge_nested(inner: Edge, outer: Edge) -> bool:
    """Nested-or-equal comparison for the edge poset."""
    return outer[0] <= inner[0] < inner[1] <= outer[1]


@dataclass(frozen=True)
class DCGraph:
    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if self.n < 1:
            raise ValueError("vertex count must be >= 1")
        for (i, j) in self.edges:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge {(i, j)} outside E_{self.n}")
        # the two immediate children (i+1, j) and (i, j-1) suffice: every
        # pair nested in (i, j) is reached from it by such steps
        for (i, j) in self.edges:
            if j - i >= 2:
                for child in ((i + 1, j), (i, j - 1)):
                    if child not in self.edges:
                        raise ValueError(
                            f"edge set not downward closed: {(i, j)} present, {child} missing"
                        )

    @cached_property
    def b(self) -> tuple[int, ...]:
        """b map, index 0..n: b[i] is the largest j > i joined to i, else
        i itself; b[0] = 1 by convention."""
        b = [1, *range(1, self.n + 1)]
        for (i, j) in self.edges:
            if j > b[i]:
                b[i] = j
        return tuple(b)

    @cached_property
    def walls(self) -> tuple[tuple[int, int, bool], ...]:
        """The O(N) walls (i, j, is_maximal) of the region, by increasing i:
        the maximal edge (i, b(i)) when b(i) > i and b(i-1) < b(i), and the
        addable pair (i, b(i) + 1) when b(i) < N and b(i) = i or
        b(i+1) > b(i).  They are maximal_edges and addable_edges."""
        b, n = self.b, self.n
        walls = []
        for i in range(1, n + 1):
            if b[i] > i and b[i - 1] < b[i]:
                walls.append((i, b[i], True))
            if b[i] < n and (b[i] == i or b[i + 1] > b[i]):
                walls.append((i, b[i] + 1, False))
        return tuple(walls)

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    # edges go in sorted, as in b_to_dc, so a graph prints the same
    # (frozenset order) whichever way it was reached
    def with_edge(self, e: Edge) -> "DCGraph":
        return DCGraph(self.n, frozenset(sorted(self.edges | {e})))

    def without_edge(self, e: Edge) -> "DCGraph":
        return DCGraph(self.n, frozenset(sorted(self.edges - {e})))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DCGraph":
        """Read {"n": int, "edges": [[i, j], ...]}; anything else, a float n
        or a string edge included, raises ValueError instead of coercing."""
        def is_int(x) -> bool:
            return isinstance(x, int) and not isinstance(x, bool)

        if not (isinstance(obj, dict) and is_int(obj.get("n")) and isinstance(obj.get("edges"), list)
                and all(isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in obj["edges"])):
            raise ValueError(f"bad graph object: {obj!r}")
        return cls(obj["n"], frozenset(tuple(e) for e in obj["edges"]))

    @classmethod
    def complete(cls, n: int) -> "DCGraph":
        return cls(n, frozenset(all_pairs(n)))

    @classmethod
    def line(cls, n: int) -> "DCGraph":
        return cls(n, frozenset((i, i + 1) for i in range(1, n)))

    @classmethod
    def empty(cls, n: int) -> "DCGraph":
        return cls(n)


@dataclass(frozen=True)
class DyckPath:
    word: str

    def __post_init__(self) -> None:
        if len(self.word) % 2 or not self.word:
            raise ValueError("Dyck word must have positive even length")
        height = 0
        for c in self.word:
            if c == "+":
                height += 1
            elif c == "-":
                height -= 1
            else:
                raise ValueError(f"Dyck word characters must be '+' or '-', got {c!r}")
            if height < 0:
                raise ValueError("Dyck word dips below zero")
        if height != 0:
            raise ValueError("Dyck word does not return to zero")

    @property
    def n(self) -> int:
        return len(self.word) // 2


def dc_to_dyck(g: DCGraph) -> DyckPath:
    """The Dyck word of g: for each i, b(i) - b(i-1) up-steps and then one
    down-step, with b(0) read as 0.  O(N), cached by b map.

    It is the supremum of the unit tents of the vertices (peaks at
    abscissas 2i-1) and the tents of height j-i+1 of the edges (i, j)
    (peaks at i+j-1), read off as +/- unit steps.
    """
    return _dyck_of_b(g.b)


# reports and sweep rows ask again for the words of the walk's few graphs;
# keyed by b map, so a stream of new graphs hashes no edge sets
@lru_cache(maxsize=4096)
def _dyck_of_b(b: tuple[int, ...]) -> DyckPath:
    b = (0, *b[1:])
    return DyckPath("".join("+" * (b[i] - b[i - 1]) + "-" for i in range(1, len(b))))


def dyck_to_dc(path: DyckPath) -> DCGraph:
    """Inverse bijection: b(i) is the number of up-steps before the i-th
    down-step, p - k for the down-step at p with k down-steps before it."""
    downs = [p for p, c in enumerate(path.word) if c == "-"]
    return _cached_graph_of_b((1, *(p - k for k, p in enumerate(downs))))


def _b_maps(n: int) -> Iterator[tuple[int, ...]]:
    """Every b map on [1, n] (index 0..n) in decreasing lexicographic
    order, which is the lexicographic order of the Dyck words ('+' < '-'):
    where two maps first differ, the larger b(i) puts a '+' where the
    smaller one puts its i-th '-'.  After the complete graph's, each map
    is the one before with its last lowerable entry lowered by one and
    every entry after it raised to n."""
    b = [1] + [n] * n
    while True:
        yield tuple(b)
        i = n
        while i and b[i] == max(i, b[i - 1]):
            i -= 1
        if not i:
            return
        b[i] -= 1
        b[i + 1:] = [n] * (n - i)


def _graph_of_b(b: tuple[int, ...]) -> DCGraph:
    """The DC graph of a valid b map b (index 0..N), with b cached on it.
    DCGraph's range and downward-closure checks are skipped: the edges
    (i, j), i < j <= b(i), of a b map pass them by construction.  The
    edges go in sorted and are frozen a second time, as DCGraph(n, edges)
    freezes them, so the graph iterates and prints its edges in the same
    order however it was reached."""
    n = len(b) - 1
    edges = frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, b[i] + 1))
    g = object.__new__(DCGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", frozenset(list(edges)))
    object.__setattr__(g, "b", b)
    return g


# the walk in regions, dyck_to_dc and connected_component_of_one reach
# graphs by b maps valid by construction; the enumeration builds its
# graphs uncached
_cached_graph_of_b = lru_cache(maxsize=4096)(_graph_of_b)


def b_to_dc(b: tuple[int, ...]) -> DCGraph:
    """The DC graph with b map b (index 0..N), cached by b map.  b is
    checked in O(N): ValueError unless its entries are ints, b(0) = 1,
    i <= b(i) <= N and b is nondecreasing."""
    n = len(b) - 1
    if not (n >= 1 and all(type(x) is int for x in b) and b[0] == 1
            and all(max(i, b[i - 1]) <= b[i] <= n for i in range(1, n + 1))):
        raise ValueError(f"not a b map: {b!r}")
    return _cached_graph_of_b(b)


def dc_graphs(n: int) -> Iterator[DCGraph]:
    """All DC graphs on [1, n], built one at a time, in the order of
    enumerate_dc; n is checked here, before the first graph is asked for."""
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    return map(_graph_of_b, _b_maps(n))


@lru_cache(maxsize=16)
def enumerate_dc(n: int) -> tuple[DCGraph, ...]:
    """All DC graphs on [1, n], ordered by their Dyck word (lexicographic):
    the cached tuple of dc_graphs(n).

    The order is a fixed convention giving stable graph ids across runs.
    """
    return tuple(dc_graphs(n))


def _ballot(height: int, steps: int) -> int:
    """Number of +/- paths of the given length from height to 0 that never
    dip below 0 (a ballot number)."""
    if steps < height or (steps - height) % 2:
        return 0
    downs = (steps + height) // 2
    return comb(steps, downs) - comb(steps, downs + 1)


def graph_index(g: DCGraph) -> int:
    """Position of g in the canonical enumeration order: the lexicographic
    rank of its Dyck word, which counts, at every '-' step, the completions
    of the same prefix that take '+' there instead (Knuth, TAOCP 4A
    7.2.1.6).  The i-th '-' follows b(i) '+' and i-1 '-', so it starts at
    height b(i) - i + 1 with 2N - b(i) - i steps after it.  O(N)
    binomials; enumerate_dc is never built."""
    b, n = g.b, g.n
    return sum(_ballot(b[i] - i + 2, 2 * n - b[i] - i) for i in range(1, n + 1))


def b_map(g: DCGraph, i: int) -> int:
    """Largest j > i joined to i, else i itself; b(0) = 1 by convention."""
    if not 0 <= i <= g.n:
        raise ValueError(f"vertex index {i} outside [0, {g.n}]")
    return g.b[i]


# adjacency_mm_condition asks for m(G1) and M(G1) against every other G2
@lru_cache(maxsize=4096)
def maximal_edges(g: DCGraph) -> frozenset[Edge]:
    """m(G): edges maximal for the nesting order.

    On a DC graph an edge is maximal iff neither immediate parent
    (i-1, j) nor (i, j+1) is an edge: any edge containing it contains
    one of those, which downward closure then puts in G.  O(|E|).
    """
    edges = g.edges
    return frozenset(
        e for e in edges
        if (e[0] - 1, e[1]) not in edges and (e[0], e[1] + 1) not in edges
    )


@lru_cache(maxsize=4096)
def addable_edges(g: DCGraph) -> frozenset[Edge]:
    """M(G): pairs outside G whose addition keeps the graph downward closed.

    Equivalently the minimal elements of the complement of E(G) in E_n:
    on a DC graph, the non-edges of length 1 and those whose two
    immediate children (i+1, j) and (i, j-1) are edges.  O(N^2).
    """
    edges = g.edges
    out = set()
    for e in all_pairs(g.n):
        i, j = e
        if e not in edges and (j - i == 1 or (i + 1, j) in edges and (i, j - 1) in edges):
            out.add(e)
    return frozenset(out)


def is_antichain(edges: frozenset[Edge] | set[Edge]) -> bool:
    """True iff no two distinct members are nested in one another."""
    edges = list(edges)
    for x in range(len(edges)):
        for y in range(len(edges)):
            if x != y and edge_nested(edges[x], edges[y]):
                return False
    return True


@dataclass(frozen=True)
class Adjacency:
    adjacent: bool
    codim: int | None = None


_NOT_ADJACENT = Adjacency(False, None)


@lru_cache(maxsize=None)
def _adjacent(codim: int) -> Adjacency:
    return Adjacency(True, codim)


def regions_adjacent(g1: DCGraph, g2: DCGraph) -> Adjacency:
    """Whether the parameter regions of g1 and g2 share boundary points.

    Criterion: the symmetric difference Δ of the edge sets is an
    antichain; the shared boundary then has codimension |Δ|.

    Read off the two b maps in one O(N) pass.  Row i of Δ is the pairs
    (i, j) with min(b1(i), b2(i)) < j <= max(b1(i), b2(i)), and two pairs
    of one row are nested, so every differing row must differ by exactly
    1 and then adds the one pair (i, m_i), m_i = max(b1(i), b2(i)).  Pairs
    of rows i' < i are nested iff m_i <= m_i'.  So the regions are
    adjacent iff m strictly increases over the differing rows, and the
    codimension is their number.  The pass stops at the first row that
    breaks the rule.  The results are shared frozen instances, one "not
    adjacent" and one per codimension.  ``is_antichain(g1.edges ^
    g2.edges)`` is the reference it must match.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must share the vertex count")
    codim = last = 0  # last: m of the previous differing row
    for x, y in zip(g1.b, g2.b):
        if x == y:
            continue
        if x == y + 1:
            m = x
        elif y == x + 1:
            m = y
        else:
            return _NOT_ADJACENT  # the row holds two nested pairs
        if m <= last:
            return _NOT_ADJACENT  # (i, m) is nested in the previous row's pair
        codim += 1
        last = m
    if not codim:
        raise ValueError("adjacency is defined for distinct graphs")
    return _adjacent(codim)


def adjacency_mm_condition(g1: DCGraph, g2: DCGraph) -> bool:
    """Alternative adjacency test via maximal/addable edge containment:
    E(G1)\\E(G2) inside m(G1) and E(G2)\\E(G1) inside M(G1)."""
    if g1.n != g2.n or g1 == g2:
        raise ValueError("need two distinct graphs on the same vertex set")
    return (g1.edges - g2.edges) <= maximal_edges(g1) and (g2.edges - g1.edges) <= addable_edges(g1)


def stanley_covers(g1: DCGraph, g2: DCGraph) -> bool:
    """True iff g2 is g1 plus exactly one edge (a covering relation of the
    inclusion order on DC graphs, i.e. of the Stanley lattice on Dyck paths)."""
    if g1.n != g2.n:
        return False
    return g1.edges < g2.edges and len(g2.edges - g1.edges) == 1


def connected_component_of_one(g: DCGraph) -> DCGraph:
    """Induced DC graph on the undirected component of vertex 1.

    b is nondecreasing on a DC graph, so no edge jumps over a vertex k
    with b(k) = k: the component of 1 is [1, k] for the first such k, and
    no relabeling beyond truncation is needed.
    """
    b = g.b
    k = next(k for k in range(1, g.n + 1) if b[k] == k)
    return _cached_graph_of_b(b[:k + 1])
