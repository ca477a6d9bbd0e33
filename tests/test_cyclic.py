import itertools
import random
import time
import tracemalloc
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_rational_params,
    reference_conjecture_probe,
    reference_f_map,
    replay_jump_order,
)
from liquidbin import cyclic
from liquidbin.combinatorics import DCGraph, connected_component_of_one, enumerate_dc
from liquidbin.cyclic import (
    ChainConstraint,
    CyclicOrder,
    DisconnectedRegionError,
    WallTieError,
    all_cyclic_orders,
    circular_extensions,
    conjecture_probe,
    f_map,
    jump_order,
    sample_params,
    zprime_chains,
)
from liquidbin.params import Params
from liquidbin.regions import classify

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
K = DCGraph.complete
L = DCGraph.line

# fiber sizes of the line graphs follow the zigzag numbers 1, 1, 2, 5, 16, 61, ...
ZIGZAG = {2: 1, 3: 1, 4: 2, 5: 5, 6: 16, 7: 61, 8: 272, 9: 1385}


def test_cyclic_order_canonical_rotation():
    assert CyclicOrder((3, 1, 2)).order == (1, 2, 3)
    assert CyclicOrder((2, 3, 1)).order == (1, 2, 3)
    with pytest.raises(ValueError):
        CyclicOrder((1, 2, 2))
    with pytest.raises(ValueError):
        CyclicOrder((2, 3, 4))


def test_triple_membership():
    z = CyclicOrder((1, 3, 2))
    assert z.contains(1, 3, 2)
    assert z.contains(3, 2, 1)
    assert not z.contains(1, 2, 3)
    assert z.is_chain((1,)) and z.is_chain((1, 2))


def test_is_chain_is_the_conjunction_of_its_triples():
    # the definition: contains(i_1, i_k, i_{k+1}) for k = 2..m-1, on every
    # order at N <= 6 and every tuple of 3 or 4 distinct entries
    for n in range(3, 7):
        for z in all_cyclic_orders(n):
            for m in (3, 4):
                for entries in itertools.permutations(range(1, n + 1), m):
                    want = all(z.contains(entries[0], entries[k], entries[k + 1]) for k in range(1, m - 1))
                    assert z.is_chain(entries) == want, (z, entries)


def test_chain_constraint_validation():
    with pytest.raises(ValueError):
        ChainConstraint((1, 2))
    with pytest.raises(ValueError):
        ChainConstraint((1, 2, 1))


def test_f_map_examples():
    assert f_map(CyclicOrder((1, 2, 3))) == K(3)
    assert f_map(CyclicOrder((1, 3, 2))) == L(3)
    assert f_map(CyclicOrder((1, 2))) == K(2)
    assert f_map(CyclicOrder((1,))) == DCGraph(1)


def test_f_map_output_is_connected_and_closed():
    for n in range(2, 6):
        for z in all_cyclic_orders(n):
            g = f_map(z)  # DCGraph constructor validates closure
            assert connected_component_of_one(g).n == n


def test_f_map_matches_the_edge_loop():
    # all (N-1)! cyclic orders up to N = 7
    for n in range(1, 8):
        orders = all_cyclic_orders(n)
        assert len(orders) == factorial(n - 1)
        for z in orders:
            assert f_map(z) == reference_f_map(z)


def test_zprime_chain_examples():
    assert [c.entries for c in zprime_chains(K(3))] == [(1, 2, 3)]
    assert [c.entries for c in zprime_chains(L(3))] == [(2, 1, 3)]
    assert zprime_chains(K(2)) == ()
    with pytest.raises(DisconnectedRegionError):
        zprime_chains(DCGraph.empty(3))


def test_realized_orders_satisfy_chain_constraints():
    rng = random.Random(3)
    for _ in range(30):
        params = random_rational_params(rng, rng.randint(2, 4))
        report = classify(params)
        if connected_component_of_one(report.graph).n != report.graph.n:
            continue
        try:
            order = jump_order(params, graph=report.graph, z=report.z)
        except WallTieError:
            continue
        for c in zprime_chains(report.graph):
            assert order.is_chain(c.entries)


def test_fiber_partition():
    for n in range(2, 8):
        connected = [g for g in enumerate_dc(n) if connected_component_of_one(g).n == n]
        total = sum(len(circular_extensions(g)) for g in connected)
        assert total == factorial(n - 1)


def test_complete_graph_has_unique_extension():
    for n in range(2, 8):
        exts = circular_extensions(K(n))
        assert len(exts) == 1
        assert exts[0].order == tuple(range(1, n + 1))


def test_line_graph_zigzag_counts():
    for n, expected in ZIGZAG.items():
        assert len(circular_extensions(L(n))) == expected


def test_extension_guard_on_large_n():
    with pytest.raises(ValueError):
        circular_extensions(L(10))


def test_dual_filters_agree():
    # the chain-constrained insertion of circular_extensions against the
    # f_map fiber over all (n-1)! orders, order included, for every
    # connected graph; every order lies in the fiber of some such graph
    for n in range(2, 9):
        fibers = {}
        for z in all_cyclic_orders(n):
            fibers.setdefault(f_map(z), []).append(z)
        for g in enumerate_dc(n):
            if connected_component_of_one(g).n == n:
                assert circular_extensions(g) == tuple(fibers.pop(g, ()))
        assert not fibers


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(2, 10)))
def test_extensions_are_the_fiber_at_n9(tail):
    z = CyclicOrder((1, *tail))
    g = f_map(z)
    exts = circular_extensions(g)
    assert z in exts
    assert all(f_map(e) == g for e in exts)


def test_jump_order_examples():
    assert jump_order(FIG1).order == (1, 2)
    p4 = Params((F(4), F(5), F(6), F(7)), (F(1), F(1), F(1), F(1)))
    assert classify(p4).graph == K(4)
    assert jump_order(p4).order == (1, 2, 3, 4)


def _order_or_tie(call):
    try:
        return call()
    except WallTieError:
        return WallTieError


def test_jump_order_methods_agree():
    # the phase path against a replay of one period in the car model, on
    # exact points and on seeded float points at two tolerances; both
    # give the same order or raise the same error
    rng = random.Random(5)
    points = [(random_rational_params(rng, rng.randint(2, 4)), 1e-9) for _ in range(40)]
    float_rng = np.random.default_rng(5)
    points += [
        (sample_params(float_rng, n), tol) for tol in (1e-9, 0.1) for n in range(2, 7) for _ in range(40)
    ]
    agreed = {True: 0, False: 0}
    for params, tol in points:
        report = classify(params, tol=tol)
        if connected_component_of_one(report.graph).n != report.graph.n or report.ambiguous:
            continue
        order = _order_or_tie(lambda: jump_order(params, graph=report.graph, z=report.z))
        assert order == _order_or_tie(lambda: replay_jump_order(params, report.graph, report.z)), params
        agreed[params.is_exact] += order is not WallTieError
    assert agreed[True] >= 25 and agreed[False] >= 140, agreed


def test_jump_order_f_consistency():
    rng = random.Random(7)
    hits = 0
    for _ in range(60):
        params = random_rational_params(rng, rng.randint(2, 4))
        report = classify(params)
        if connected_component_of_one(report.graph).n != report.graph.n:
            continue
        try:
            order = jump_order(params, graph=report.graph, z=report.z)
        except WallTieError:
            continue
        assert f_map(order) == report.graph
        hits += 1
    assert hits >= 25


def test_jump_order_rejects_disconnected():
    # a2 far beyond a1: the stationary graph splits
    params = Params((F(1), F(50)), (F(1), F(1)))
    report = classify(params)
    assert report.graph == DCGraph.empty(2)
    with pytest.raises(DisconnectedRegionError) as err:
        jump_order(params)
    assert err.value.graph == DCGraph.empty(2)


def test_jump_order_wall_tie():
    with pytest.raises(WallTieError):
        jump_order(Params((F(1), F(2), F(3)), (F(1), F(1), F(1))))
    # a float point whose classify report is ambiguous at this tol
    with pytest.raises(WallTieError):
        jump_order(Params((1.0, 2.5, 4.75, 6.0, 6.75), (1.0, 2.0, 3.0, 1.0, 3.0)), tol=0.1)


def test_probe_coverage_small():
    for g in (K(2), K(3), L(3)):
        rep = conjecture_probe(g, budget=20000, seed=7)
        assert rep.covered
        assert rep.missing == ()
        assert set(rep.realized) == set(rep.extensions)
        assert rep.hits >= len(rep.extensions)
    rep = conjecture_probe(K(3), budget=20000, seed=7)
    assert rep.samples <= 20000 and rep.seed == 7
    assert rep.rng == "numpy-pcg64"


def test_probe_determinism():
    a = conjecture_probe(L(3), budget=3000, seed=13)
    b = conjecture_probe(L(3), budget=3000, seed=13)
    assert a.samples == b.samples and a.hits == b.hits and a.counts == b.counts


def test_probe_reports_missing_without_refutation():
    rep = conjecture_probe(L(4), budget=1, seed=1)
    assert not rep.covered
    assert set(rep.missing) | set(rep.realized) == set(rep.extensions)


def test_sample_params_ranges():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        params = sample_params(rng, 4)
        assert all(1e-2 <= d <= 1e2 for d in params.d)
        assert all(1e-2 <= p <= 1e2 for p in params.p)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_consecutive_samples_are_one_chunked_draw(n):
    for k in (0, 1, 2, 7, cyclic._SAMPLE_CHUNK, 2 * cyclic._SAMPLE_CHUNK + 3):
        one_by_one, chunked, streamed = (np.random.default_rng(n + k) for _ in range(3))
        samples = [sample_params(one_by_one, n) for _ in range(k)]
        a, p = cyclic._draw(chunked, n, k)
        assert [(s.a, s.p) for s in samples] == [(tuple(ak), tuple(pk)) for ak, pk in zip(a, p)]
        assert list(cyclic._probe_stream(streamed, n, k)) == samples
        assert one_by_one.bit_generator.state == chunked.bit_generator.state == streamed.bit_generator.state


@pytest.mark.parametrize("n", range(2, 7))
def test_probe_matches_the_one_sample_at_a_time_oracle(n):
    chunk = cyclic._SAMPLE_CHUNK
    for g in (g for g in enumerate_dc(n) if connected_component_of_one(g).n == n):
        for seed in range(3):
            for budget in (0, 1, chunk - 1, chunk, chunk + 1):
                want = reference_conjecture_probe(g, budget, seed).to_json_dict()
                assert conjecture_probe(g, budget, seed).to_json_dict() == want, (g, seed, budget)


def test_probe_matches_the_oracle_when_it_stops_early():
    budget = 10 * cyclic._SAMPLE_CHUNK
    stops = []
    for g, seed in ((K(3), 7), (L(4), 3), (G5, 2)):
        got = conjecture_probe(g, budget, seed)
        assert got.covered and got.samples < budget
        assert got.to_json_dict() == reference_conjecture_probe(g, budget, seed).to_json_dict()
        stops.append(got.samples)
    # one probe stops inside the first chunk, one in a later chunk
    assert min(stops) < cyclic._SAMPLE_CHUNK < max(stops)


def test_probe_allocates_nothing_for_a_huge_budget():
    # the CLI form, `conjecture --n 3 --budget 99999999999999999999`, is
    # held to its recorded output in tests/data/extensions_golden.jsonl
    small = conjecture_probe(L(4), 200, 3)
    assert small.covered and small.samples == 51
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = conjecture_probe(L(4), 10**12, 3)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.to_json_dict() == small.to_json_dict()
    assert elapsed < 1.0 and peak < 2**20


G5 = DCGraph(5, frozenset({(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)}))


@pytest.mark.parametrize("g, seed, counts, samples", [
    (L(4), 0, {"1-3-2-4": 1, "1-4-3-2": 0}, 200),
    (L(4), 3, {"1-3-2-4": 1, "1-4-3-2": 1}, 51),
    (G5, 2, {"1-3-4-2-5": 1, "1-5-3-4-2": 1}, 143),
    (G5, 4, {"1-3-4-2-5": 2, "1-5-3-4-2": 0}, 200),
])
def test_seeded_probe_reports_are_pinned(g, seed, counts, samples):
    # values recorded when the probe located samples with the exhaustive
    # find_region scan; locating them with classify must not move them
    orders = [[int(v) for v in key.split("-")] for key in counts]
    assert conjecture_probe(g, 200, seed).to_json_dict() == {
        "graph": g.to_json_dict(),
        "extensions": orders,
        "realized": [o for o, c in zip(orders, counts.values()) if c],
        "missing": [o for o, c in zip(orders, counts.values()) if not c],
        "counts": counts,
        "samples": samples,
        "hits": sum(counts.values()),
        "skipped": 0,
        "seed": seed,
        "method": "stationary-phases",
        "rng": "numpy-pcg64",
        "covered": all(counts.values()),
    }
