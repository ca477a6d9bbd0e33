"""Downward-closed graphs on [1, n], their Dyck-path bijection, and the
nesting poset driving the region adjacency structure.

An edge (i, j), i < j, is *nested* in (i', j') when i' <= i < j <= j'.  A
graph is downward closed (DC) when its edge set is closed under taking
nested pairs.  DC graphs on n vertices are counted by the Catalan number
C_n and biject with Dyck words of length 2n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

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
        for (i, j) in self.edges:
            for i2 in range(i, j):
                for j2 in range(i2 + 1, j + 1):
                    if (i2, j2) not in self.edges:
                        raise ValueError(
                            f"edge set not downward closed: {(i, j)} present, {(i2, j2)} missing"
                        )

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def with_edge(self, e: Edge) -> "DCGraph":
        return DCGraph(self.n, self.edges | {e})

    def without_edge(self, e: Edge) -> "DCGraph":
        return DCGraph(self.n, self.edges - {e})

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DCGraph":
        return cls(int(obj["n"]), frozenset((int(i), int(j)) for i, j in obj["edges"]))

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

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(1 if c == "+" else -1 for c in self.word)

    @property
    def heights(self) -> tuple[int, ...]:
        """Heights at integer abscissas 0..2n."""
        out = [0]
        for s in self.steps:
            out.append(out[-1] + s)
        return tuple(out)


def dc_to_dyck(g: DCGraph) -> DyckPath:
    """Supremum of the broken lines of all edges and vertex tents.

    Vertex i contributes a unit tent peaking at abscissa 2i-1; edge (i, j)
    contributes a tent of height j-i+1 peaking at abscissa i+j-1.  The
    supremum, read off as +/- unit steps, is the Dyck word.
    """
    h = [0] * (2 * g.n + 1)
    for i in range(1, g.n + 1):
        for x in (2 * i - 2, 2 * i - 1, 2 * i):
            h[x] = max(h[x], 1 - abs(x - (2 * i - 1)))
    for (i, j) in g.edges:
        apex_x, apex_h = i + j - 1, j - i + 1
        for x in range(2 * i - 1, 2 * j):
            h[x] = max(h[x], apex_h - abs(x - apex_x))
    word = "".join("+" if h[x + 1] > h[x] else "-" for x in range(2 * g.n))
    return DyckPath(word)


def dyck_to_dc(path: DyckPath) -> DCGraph:
    """Inverse bijection: (i, j) is an edge iff the path reaches height
    j-i+1 at abscissa i+j-1 (so the whole edge tent fits under the path)."""
    h = path.heights
    n = path.n
    edges = frozenset((i, j) for (i, j) in all_pairs(n) if h[i + j - 1] >= j - i + 1)
    return DCGraph(n, edges)


def _dyck_words(n: int) -> list[str]:
    """All Dyck words of length 2n in lexicographic order ('+' < '-')."""
    out: list[str] = []

    def grow(prefix: list[str], ups: int, downs: int) -> None:
        if ups == n and downs == n:
            out.append("".join(prefix))
            return
        if ups < n:
            prefix.append("+")
            grow(prefix, ups + 1, downs)
            prefix.pop()
        if downs < ups:
            prefix.append("-")
            grow(prefix, ups, downs + 1)
            prefix.pop()

    grow([], 0, 0)
    return out


@lru_cache(maxsize=16)
def _enumerate_dc_cached(n: int) -> tuple[DCGraph, ...]:
    return tuple(dyck_to_dc(DyckPath(w)) for w in _dyck_words(n))


def enumerate_dc(n: int) -> tuple[DCGraph, ...]:
    """All DC graphs on [1, n], ordered by their Dyck word (lexicographic).

    The order is a fixed convention giving stable graph ids across runs.
    """
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    return _enumerate_dc_cached(n)


def graph_index(g: DCGraph) -> int:
    """Position of g in the canonical enumeration order."""
    return enumerate_dc(g.n).index(g)


def b_map(g: DCGraph, i: int) -> int:
    """Largest j > i joined to i, else i itself; b(0) = 1 by convention."""
    if not 0 <= i <= g.n:
        raise ValueError(f"vertex index {i} outside [0, {g.n}]")
    if i == 0:
        return 1
    best = i
    for (u, v) in g.edges:
        if u == i and v > best:
            best = v
    return best


# region checks ask for m(G) and M(G) of the same few graphs at every point
@lru_cache(maxsize=4096)
def maximal_edges(g: DCGraph) -> frozenset[Edge]:
    """m(G): edges maximal for the nesting order."""
    return frozenset(
        e for e in g.edges
        if not any(e != f and edge_nested(e, f) for f in g.edges)
    )


@lru_cache(maxsize=4096)
def addable_edges(g: DCGraph) -> frozenset[Edge]:
    """M(G): pairs outside G whose addition keeps the graph downward closed.

    Equivalently the minimal elements of the complement of E(G) in E_n.
    """
    out = set()
    for e in all_pairs(g.n):
        if e in g.edges:
            continue
        i, j = e
        nested_inside = (
            (i2, j2)
            for i2 in range(i, j)
            for j2 in range(i2 + 1, j + 1)
            if (i2, j2) != e
        )
        if all(f in g.edges for f in nested_inside):
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


def regions_adjacent(g1: DCGraph, g2: DCGraph) -> Adjacency:
    """Whether the parameter regions of g1 and g2 share boundary points.

    Criterion: the symmetric difference of the edge sets is an antichain;
    the shared boundary then has codimension equal to its size.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must share the vertex count")
    if g1 == g2:
        raise ValueError("adjacency is defined for distinct graphs")
    delta = g1.edges ^ g2.edges
    if is_antichain(delta):
        return Adjacency(True, len(delta))
    return Adjacency(False, None)


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

    Downward closure makes every component an integer interval, so the
    component of 1 is [1, k] and no relabeling beyond truncation is needed.
    """
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
    return DCGraph(k, frozenset(e for e in g.edges if e[1] <= k))
