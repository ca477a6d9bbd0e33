import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dyck_words, reference_b, reference_component_of_one
from liquidbin.combinatorics import (
    Adjacency,
    DCGraph,
    DyckPath,
    addable_edges,
    adjacency_mm_condition,
    all_pairs,
    b_map,
    b_to_dc,
    catalan,
    connected_component_of_one,
    dc_graphs,
    dc_to_dyck,
    dyck_to_dc,
    edge_nested,
    enumerate_dc,
    graph_index,
    is_antichain,
    maximal_edges,
    regions_adjacent,
    stanley_covers,
)

FIG2 = DCGraph(5, frozenset({(1, 2), (1, 3), (2, 3), (4, 5)}))


def nested_pairs_present(edges):
    """Closure oracle: every pair nested in every edge is an edge."""
    return all(
        (i2, j2) in edges
        for (i, j) in edges
        for i2 in range(i, j)
        for j2 in range(i2 + 1, j + 1)
    )


def all_edge_subsets(n):
    pairs = all_pairs(n)
    for mask in range(2 ** len(pairs)):
        yield frozenset(e for k, e in enumerate(pairs) if mask >> k & 1)


def brute_force_dc_edge_sets(n):
    """Independent enumeration: filter every subset of E_n for closure."""
    return [edges for edges in all_edge_subsets(n) if nested_pairs_present(edges)]


def test_counts_match_catalan():
    assert [len(enumerate_dc(n)) for n in range(1, 9)] == [catalan(n) for n in range(1, 9)]
    assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_enumeration_matches_brute_force():
    for n in range(1, 6):
        brute = sorted(brute_force_dc_edge_sets(n), key=sorted)
        mine = sorted((g.edges for g in enumerate_dc(n)), key=sorted)
        assert mine == brute


def test_enumeration_rejects_n_zero():
    with pytest.raises(ValueError):
        enumerate_dc(0)
    with pytest.raises(ValueError):
        dc_graphs(0)  # at the call, before any graph is asked for


def test_enumeration_order_is_dyck_lexicographic():
    for n in range(1, 10):
        words = [dc_to_dyck(g).word for g in enumerate_dc(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_downward_closure_enforced():
    with pytest.raises(ValueError):
        DCGraph(3, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        DCGraph(3, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(ValueError):
        DCGraph(2, frozenset({(2, 1)}))


def test_closure_check_matches_nested_pair_oracle():
    """The two-children check accepts exactly the subsets of E_n (N <= 6,
    2^15 of them at N = 6) that the all-nested-pairs scan accepts, and a
    rejection names a present edge and a missing pair nested in it."""
    message = re.compile(r"edge set not downward closed: \((\d+), (\d+)\) present, \((\d+), (\d+)\) missing")
    for n in range(1, 7):
        for edges in all_edge_subsets(n):
            try:
                DCGraph(n, edges)
                accepted = True
            except ValueError as exc:
                accepted = False
                i, j, i2, j2 = map(int, message.fullmatch(str(exc)).groups())
                assert (i, j) in edges and (i2, j2) not in edges
                assert edge_nested((i2, j2), (i, j))
            assert accepted == nested_pairs_present(edges)


def test_dyck_word_validation():
    with pytest.raises(ValueError):
        DyckPath("+-+")
    with pytest.raises(ValueError):
        DyckPath("-+")
    with pytest.raises(ValueError):
        DyckPath("++")
    with pytest.raises(ValueError):
        DyckPath("+x")


def test_bijection_examples():
    assert dc_to_dyck(FIG2).word == "+++---++--"
    assert dyck_to_dc(DyckPath("+++---++--")) == FIG2
    assert dc_to_dyck(DCGraph.empty(3)).word == "+-+-+-"
    assert dc_to_dyck(DCGraph.complete(3)).word == "+++---"


def tent_dyck_word(g):
    """The oracle for dc_to_dyck: the supremum of the broken lines of the
    vertex and edge tents, read off as +/- unit steps.  Vertex i
    contributes a unit tent peaking at abscissa 2i-1, edge (i, j) a tent
    of height j-i+1 peaking at abscissa i+j-1.  O(N^3)."""
    h = [0] * (2 * g.n + 1)
    for i in range(1, g.n + 1):
        for x in (2 * i - 2, 2 * i - 1, 2 * i):
            h[x] = max(h[x], 1 - abs(x - (2 * i - 1)))
    for (i, j) in g.edges:
        apex_x, apex_h = i + j - 1, j - i + 1
        for x in range(2 * i - 1, 2 * j):
            h[x] = max(h[x], apex_h - abs(x - apex_x))
    return "".join("+" if h[x + 1] > h[x] else "-" for x in range(2 * g.n))


def test_dyck_word_is_the_tent_supremum():
    for n in range(1, 9):
        for g in enumerate_dc(n):
            assert dc_to_dyck(g).word == tent_dyck_word(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(10, 40).flatmap(dyck_words))
def test_dyck_word_is_the_tent_supremum_at_large_n(word):
    # the tent map is injective, so this also makes dyck_to_dc its inverse
    g = dyck_to_dc(DyckPath(word))
    assert tent_dyck_word(g) == word
    assert dc_to_dyck(g).word == word


def test_bijection_roundtrip():
    for n in range(1, 8):
        for g in enumerate_dc(n):
            assert dyck_to_dc(dc_to_dyck(g)) == g
    # the other direction via word enumeration
    for n in range(1, 7):
        for g in enumerate_dc(n):
            w = dc_to_dyck(g)
            assert dc_to_dyck(dyck_to_dc(w)).word == w.word


def test_connected_counts():
    for n in range(2, 9):
        connected = [g for g in enumerate_dc(n) if connected_component_of_one(g).n == n]
        assert len(connected) == catalan(n - 1)


def test_b_map():
    assert b_map(DCGraph.complete(3), 1) == 3
    assert b_map(DCGraph.empty(3), 2) == 2
    for g in enumerate_dc(4):
        assert b_map(g, 0) == 1
    with pytest.raises(ValueError):
        b_map(DCGraph.empty(3), 4)
    with pytest.raises(ValueError):
        b_map(DCGraph.empty(3), -1)


def test_b_is_the_edge_scan_and_b_to_dc_inverts_it():
    # every DC graph up to N = 8: b_to_dc(g.b) is g, down to the frozenset
    # order of dyck_to_dc, and b is nondecreasing with b(i) >= i
    for n in range(1, 9):
        for g in enumerate_dc(n):
            b = g.b
            assert b == reference_b(g)
            assert [b_map(g, i) for i in range(n + 1)] == list(b)
            assert all(b[i - 1] <= b[i] and b[i] >= i for i in range(1, n + 1))
            h = b_to_dc(b)
            assert h == g and repr(h) == repr(g) and list(h.edges) == list(g.edges)
            assert b_to_dc(b) is h  # cached by value


@pytest.mark.parametrize("b", [
    (), (1,), (0, 1, 2), (2, 2, 2), (1, 0, 2), (1, 2, 1), (1, 3, 2, 3), (1, 2, 3, 4), (1, 1, 3, 2),
    (1, 2.0, 2), (1, True, 2), (1, "2", 2),
], ids=repr)
def test_b_to_dc_rejects_what_is_not_a_b_map(b):
    # b(0) = 1, i <= b(i) <= N, nondecreasing, ints: else ValueError, not
    # a graph built unchecked
    with pytest.raises(ValueError, match="not a b map"):
        b_to_dc(b)


def test_walls_are_the_maximal_and_addable_edges():
    # read from b, against the edge-set rules, maximal edges flagged True
    for n in range(1, 9):
        for g in enumerate_dc(n):
            want = [(*e, True) for e in maximal_edges(g)] + [(*e, False) for e in addable_edges(g)]
            assert g.walls == tuple(sorted(want))


def test_maximal_edges_examples():
    for n in range(2, 6):
        assert maximal_edges(DCGraph.complete(n)) == frozenset({(1, n)})
    assert maximal_edges(DCGraph.empty(4)) == frozenset()
    assert maximal_edges(FIG2) == frozenset({(1, 3), (4, 5)})


def test_addable_edges_examples():
    assert addable_edges(DCGraph.empty(3)) == frozenset({(1, 2), (2, 3)})
    for n in range(2, 6):
        assert addable_edges(DCGraph.complete(n)) == frozenset()
    assert addable_edges(DCGraph.line(3)) == frozenset({(1, 3)})


def test_maximal_addable_against_mutation_oracle():
    """e is maximal iff removal keeps closure; addable iff addition does."""

    def is_closed(n, edges):
        try:
            DCGraph(n, edges)
            return True
        except ValueError:
            return False

    for n in range(1, 6):
        for g in enumerate_dc(n):
            for e in all_pairs(n):
                if e in g.edges:
                    assert (e in maximal_edges(g)) == is_closed(n, g.edges - {e})
                else:
                    assert (e in addable_edges(g)) == is_closed(n, g.edges | {e})


def maximal_edges_reference(g):
    """The all-pairs scan the neighbour rule replaced: O(|E|^2)."""
    return frozenset(
        e for e in g.edges
        if not any(e != f and edge_nested(e, f) for f in g.edges)
    )


def addable_edges_reference(g):
    """The all-sub-pairs scan the neighbour rule replaced: O(N^4)."""
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


def test_maximal_addable_neighbour_rule_matches_reference_scans():
    """Same sets, and the same frozenset print order, which
    in_region_report's boundary flags inherit."""
    for n in range(1, 8):
        for g in enumerate_dc(n):
            for fast, reference in ((maximal_edges, maximal_edges_reference),
                                    (addable_edges, addable_edges_reference)):
                assert fast(g) == reference(g)
                assert list(fast(g)) == list(reference(g))


def test_addable_is_minimal_complement():
    for n in range(1, 6):
        for g in enumerate_dc(n):
            complement = set(all_pairs(n)) - g.edges
            minimal = {
                e
                for e in complement
                if not any(
                    f != e and f[0] >= e[0] and f[1] <= e[1] for f in complement
                )
            }
            assert addable_edges(g) == minimal


def test_is_antichain():
    assert is_antichain({(1, 3)})
    assert not is_antichain({(1, 3), (2, 3)})
    assert is_antichain({(1, 2), (3, 4)})
    assert is_antichain(set())


def test_antichain_matches_pairwise_scan():
    rng = random.Random(5)
    pairs = all_pairs(6)
    for _ in range(200):
        s = set(rng.sample(pairs, rng.randint(0, 6)))
        expected = not any(
            x != y and y[0] <= x[0] < x[1] <= y[1] for x in s for y in s
        )
        assert is_antichain(s) == expected


def test_adjacency_examples():
    K3, L3, E3 = DCGraph.complete(3), DCGraph.line(3), DCGraph.empty(3)
    assert regions_adjacent(K3, L3) == Adjacency(True, 1)
    assert regions_adjacent(K3, E3) == Adjacency(False, None)
    assert regions_adjacent(E3, DCGraph(3, frozenset({(1, 2)}))) == Adjacency(True, 1)
    with pytest.raises(ValueError):
        regions_adjacent(K3, K3)
    with pytest.raises(ValueError):
        regions_adjacent(K3, DCGraph.complete(4))


def assert_adjacency_matches_references(g1, g2):
    """The b-map row rule, both ways round, against the antichain scan on
    the edge-set symmetric difference and against the m/M condition."""
    delta = g1.edges ^ g2.edges
    expected = is_antichain(delta)
    for a, b in ((g1, g2), (g2, g1)):
        adj = regions_adjacent(a, b)
        assert adj.adjacent == expected == adjacency_mm_condition(a, b)
        assert adj.codim == (len(delta) if expected else None)


def test_adjacency_dual_characterizations_agree():
    """Every ordered pair of distinct graphs at N <= 7."""
    for n in range(1, 8):
        graphs = enumerate_dc(n)
        for i, g1 in enumerate(graphs):
            for g2 in graphs[i + 1:]:
                assert_adjacency_matches_references(g1, g2)


@st.composite
def graph_pairs(draw):
    """Two distinct graphs at N = 9..12: either two random Dyck words, or
    one and the graph left after removing some maximal edges and adding
    some addable ones (adjacent or not, depending on nesting)."""
    n = draw(st.integers(9, 12))
    g1 = dyck_to_dc(DyckPath(draw(dyck_words(n))))
    if draw(st.booleans()):
        g2 = dyck_to_dc(DyckPath(draw(dyck_words(n))))
    else:
        removed = draw(st.sets(st.sampled_from(sorted(maximal_edges(g1))))) if g1.edges else set()
        g2 = DCGraph(n, g1.edges - removed)
        addable = sorted(addable_edges(g2))
        added = draw(st.sets(st.sampled_from(addable), min_size=0 if removed else 1)) if addable else set()
        g2 = DCGraph(n, g2.edges | added)
    return g1, g2


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_adjacency_kernel_matches_references_at_large_n(pair):
    g1, g2 = pair
    if g1 == g2:
        with pytest.raises(ValueError, match="distinct graphs"):
            regions_adjacent(g1, g2)
        return
    assert_adjacency_matches_references(g1, g2)


def test_adjacency_errors_unchanged():
    K4 = DCGraph.complete(4)
    with pytest.raises(ValueError, match="^graphs must share the vertex count$"):
        regions_adjacent(K4, DCGraph.complete(3))
    with pytest.raises(ValueError, match="^graphs must share the vertex count$"):
        regions_adjacent(DCGraph.empty(3), DCGraph.empty(4))  # vertex count is checked first
    with pytest.raises(ValueError, match="^adjacency is defined for distinct graphs$"):
        regions_adjacent(K4, DCGraph(4, frozenset(all_pairs(4))))


def test_b_map_stays_out_of_equality_and_survives_pickling():
    graphs = list(enumerate_dc(5))
    fresh = [DCGraph(5, g.edges) for g in graphs]  # no b map computed yet
    for g, f in zip(graphs, fresh):
        g.b
        assert "b" not in vars(f)
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert f.to_json_dict() == g.to_json_dict()
    restored = [pickle.loads(pickle.dumps(g)) for g in graphs + fresh]
    for g, r in zip(graphs + fresh, restored):
        assert r == g and hash(r) == hash(g) and r.b == g.b
    for g1, r1 in zip(graphs, restored):
        for g2, r2 in zip(graphs, restored[len(graphs):]):
            if g1 != g2:
                assert regions_adjacent(r1, r2) == regions_adjacent(g1, g2)


def test_stanley_covers():
    K3, L3, E3 = DCGraph.complete(3), DCGraph.line(3), DCGraph.empty(3)
    assert stanley_covers(L3, K3)
    assert not stanley_covers(E3, K3)
    assert stanley_covers(E3, DCGraph(3, frozenset({(2, 3)})))
    assert not stanley_covers(K3, L3)


def test_covers_are_exactly_codim_one_adjacency():
    for n in range(1, 6):
        graphs = enumerate_dc(n)
        for g1 in graphs:
            for g2 in graphs:
                if g1 == g2:
                    continue
                covering = stanley_covers(g1, g2) or stanley_covers(g2, g1)
                adj = regions_adjacent(g1, g2)
                assert covering == (adj.adjacent and adj.codim == 1)
                if covering:
                    assert adj.adjacent and adj.codim == 1


def test_connected_component_of_one():
    assert connected_component_of_one(FIG2) == DCGraph.complete(3)
    assert connected_component_of_one(DCGraph.empty(4)) == DCGraph(1)
    for n in range(1, 6):
        assert connected_component_of_one(DCGraph.complete(n)) == DCGraph.complete(n)


def test_connected_component_of_one_matches_the_search():
    # every DC graph up to N = 8, against a search over the undirected
    # edges; graphs from dyck_to_dc keep their frozenset order
    for n in range(1, 9):
        for g in enumerate_dc(n):
            want = reference_component_of_one(g)
            got = connected_component_of_one(g)
            assert got == want and repr(got) == repr(want)


def test_graph_json_roundtrip():
    for g in enumerate_dc(4):
        blob = json.dumps(g.to_json_dict())
        assert DCGraph.from_json_dict(json.loads(blob)) == g


def test_graph_index_is_stable():
    for n in range(1, 10):
        for i, g in enumerate(enumerate_dc(n)):
            assert graph_index(g) == i
