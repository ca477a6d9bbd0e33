"""Downward-closed graphs on [1, n], their Dyck-path bijection, and the
nesting poset driving the region adjacency structure.

An edge (i, j), i < j, is *nested* in (i', j') when i' <= i < j <= j'.  A
graph is downward closed (DC) when its edge set is closed under taking
nested pairs.  DC graphs on n vertices are counted by the Catalan number
C_n and biject with Dyck words of length 2n.

This module owns the three representations of a DC graph and the only
conversions between them:

- the edge set ``DCGraph.edges``, the value: equality, hashing, repr
  and JSON are those of the edge set alone;
- the edge bitmask ``DCGraph.bits``: bit k is the pair ``all_pairs(n)[k]``;
- the b map ``DCGraph.b``: b(i) is the farthest neighbour j > i of i, else
  i itself, with b(0) = 1.  It is nondecreasing and fixes the graph;
  ``b_to_dc`` gives the graph back.  The walls, plans and jump orders of
  the other modules are read from it.

``bits`` and ``b`` are computed on first use and cached on the instance,
outside the dataclass fields.  ``regions_adjacent`` tests the antichain
condition on the XOR of two masks against per-n tables of strict
containers; ``is_antichain`` is the plain reference on arbitrary edge sets
and ``adjacency_mm_condition`` an independent second characterization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

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
    def bits(self) -> int:
        """Edge bitmask: bit k is set iff all_pairs(n)[k] is an edge."""
        bit = _layout(self.n).bit
        return sum(1 << bit[e] for e in self.edges)

    @cached_property
    def b(self) -> tuple[int, ...]:
        """b map, index 0..n: b[i] is the largest j > i joined to i, else
        i itself; b[0] = 1 by convention."""
        b = [1, *range(1, self.n + 1)]
        for (i, j) in self.edges:
            if j > b[i]:
                b[i] = j
        return tuple(b)

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    # edges go in sorted, as in dyck_to_dc, so a graph prints the same
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


@lru_cache(maxsize=4096)
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
    7.2.1.6).  O(N^2) arithmetic; enumerate_dc is never built."""
    word = dc_to_dyck(g).word
    rank = height = 0
    for k, c in enumerate(word):
        if c == "-":
            rank += _ballot(height + 1, len(word) - k - 1)
            height -= 1
        else:
            height += 1
    return rank


def b_map(g: DCGraph, i: int) -> int:
    """Largest j > i joined to i, else i itself; b(0) = 1 by convention."""
    if not 0 <= i <= g.n:
        raise ValueError(f"vertex index {i} outside [0, {g.n}]")
    return g.b[i]


# the walk in regions and f_map in cyclic reach graphs by their b maps
@lru_cache(maxsize=4096)
def b_to_dc(b: tuple[int, ...]) -> DCGraph:
    """The DC graph with b map b (index 0..N), its edges put in sorted (as
    in dyck_to_dc), so it prints the same however it was reached."""
    n = len(b) - 1
    return DCGraph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, b[i] + 1)))


# region checks ask for m(G) and M(G) of the same few graphs at every point
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


class _Layout(NamedTuple):
    bit: dict[Edge, int]         # pair -> its bit, bit k is all_pairs(n)[k]
    containers: tuple[int, ...]  # bit k -> mask of the pairs strictly containing pair k
    adjacent: tuple[Adjacency, ...]  # codim -> the shared Adjacency(True, codim)


@lru_cache(maxsize=32)
def _layout(n: int) -> _Layout:
    pairs = all_pairs(n)
    bit = {e: k for k, e in enumerate(pairs)}
    containers = tuple(
        sum(1 << bit[(i2, j2)] for i2 in range(1, i + 1) for j2 in range(j, n + 1)) & ~(1 << bit[(i, j)])
        for (i, j) in pairs
    )
    return _Layout(bit, containers, tuple(Adjacency(True, c) for c in range(len(pairs) + 1)))


def regions_adjacent(g1: DCGraph, g2: DCGraph) -> Adjacency:
    """Whether the parameter regions of g1 and g2 share boundary points.

    Criterion: the symmetric difference of the edge sets is an antichain;
    the shared boundary then has codimension equal to its size.

    Δ is ``g1.bits ^ g2.bits`` (bit k is ``all_pairs(n)[k]``).  Δ is an
    antichain iff no member's mask of strict containers meets Δ, so the
    test walks the set bits of Δ and stops at the first one that does:
    O(|Δ|) integer operations, no set built per pair.  The results are
    shared frozen instances, one "not adjacent" and one per codimension.
    ``is_antichain(g1.edges ^ g2.edges)`` is the reference it must match.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must share the vertex count")
    delta = g1.bits ^ g2.bits
    if not delta:
        raise ValueError("adjacency is defined for distinct graphs")
    layout = _layout(g1.n)
    containers = layout.containers
    rest = delta
    while rest:
        low = rest & -rest
        if containers[low.bit_length() - 1] & delta:
            return _NOT_ADJACENT
        rest ^= low
    return layout.adjacent[delta.bit_count()]


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
    return b_to_dc(b[:k + 1])
