"""Acceptance suite: one test per headline criterion, each printing a
PASS line (run with -s to see them) and asserting its runtime budget."""
import random
import time
from fractions import Fraction as F
from math import factorial

import numpy as np

from conftest import (
    random_bin_config,
    random_duration,
    random_mild_params,
    random_rational_params,
    replay_jump_order,
)
from liquidbin.combinatorics import (
    DCGraph,
    adjacency_mm_condition,
    catalan,
    connected_component_of_one,
    dc_to_dyck,
    dyck_to_dc,
    enumerate_dc,
    graph_index,
    is_antichain,
    regions_adjacent,
    stanley_covers,
)
from liquidbin.cyclic import (
    WallTieError,
    circular_extensions,
    conjecture_probe,
    f_map,
    jump_order,
    sample_params,
)
from liquidbin.dynamics import BinConfig, evolve_bins, sigma, step_cars, windowed_volumes
from liquidbin.ibm import hydrolimit_check
from liquidbin.params import Params
from liquidbin.regions import SweepGrid, classify, find_region, solve_system, sweep
from liquidbin.stationary import bounding_profiles, fixed_point_solve, iterate_breakpoints

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
K = DCGraph.complete
L = DCGraph.line


class budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"runtime budget exceeded: {elapsed:.2f}s"
            print(f"\nACCEPTANCE {self.name} PASS ({elapsed:.2f}s < {self.seconds}s)")
        else:
            print(f"\nACCEPTANCE {self.name} FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_reference_point_reproduction():
    with budget("1: reference point (period 9/8, speed 8/9, one-bin shift)", 1.0):
        report = classify(FIG1)
        assert report.graph == K(2)
        assert report.z[0] == F(9, 8)
        assert report.speed == F(8, 9)

        params = FIG1.as_float()
        x0 = BinConfig(front=2, volumes=(1.0, 1.5, 1.5))
        x1, _ = evolve_bins(x0, params, 1.125)
        assert x1.front == x0.front + 1
        before = windowed_volumes(x0, params)
        after = windowed_volumes(x1, params)
        assert len(before) == len(after)
        assert max(abs(u - v) for u, v in zip(before, after)) < 1e-9


def test_criterion_2_two_sign_phase_transition():
    with budget("2: two-sign phase transition at p1 = 3/7", 5.0):
        values = [k / 100 for k in range(1, 100)]
        grid = SweepGrid(n=2, fixed={"a1": 0.3, "a2": 1.0, "p2": "1-p1"}, axes=[("p1", values)])
        records = sweep(grid)
        assert all(rec.error == "" for rec in records)
        labels = [rec.graph_id for rec in records]
        assert len(set(labels)) == 2
        switches = [k for k in range(1, len(labels)) if labels[k] != labels[k - 1]]
        assert len(switches) == 1
        k = switches[0]
        assert values[k - 1] <= 3 / 7 <= values[k + 1]  # bracket within one grid step

        edge_id = graph_index(K(2))
        free_id = graph_index(DCGraph.empty(2))
        for p1, rec in zip(values, records):
            formula = 1 / (1 - p1 * 0.7) if rec.graph_id == edge_id else p1 / 0.3
            assert rec.graph_id in (edge_id, free_id)
            assert abs(rec.speed - formula) < 1e-10

        crit = 3 / 7
        assert abs(1 / (1 - crit * 0.7) - crit / 0.3) < 1e-10  # both formulas at the wall

        grid_high = SweepGrid(n=2, fixed={"a1": 0.6, "a2": 1.0, "p2": "1-p1"}, axes=[("p1", values)])
        labels_high = {rec.graph_id for rec in sweep(grid_high)}
        assert len(labels_high) == 1


def test_criterion_3_wall_between_complete_and_line():
    with budget("3: exact wall points d1 q3 = d2 q1 + d3 q2", 5.0):
        rng = random.Random(21)
        for _ in range(50):
            q1 = F(rng.randint(1, 6), rng.randint(1, 3))
            q2 = q1 + F(rng.randint(1, 6), rng.randint(1, 3))
            q3 = q2 + F(rng.randint(1, 6), rng.randint(1, 3))
            d2 = F(rng.randint(1, 6), rng.randint(1, 3))
            d3 = F(rng.randint(1, 6), rng.randint(1, 3))
            d1 = (d2 * q1 + d3 * q2) / q3  # wall polynomial vanishes exactly
            wall = Params((d1, d1 + d2, d1 + d2 + d3), (q1, q2 - q1, q3 - q2))
            assert solve_system(K(3), wall)[0] == solve_system(L(3), wall)[0]
            assert solve_system(K(3), wall) == solve_system(L(3), wall)
            report = classify(wall)
            assert report.graph == L(3)
            assert (1, 3) in report.boundary_flags

            up = Params((d1 + F(1, 7), d1 + F(1, 7) + d2, d1 + F(1, 7) + d2 + d3), wall.p)
            assert classify(up).graph == K(3)  # positive polynomial side

            down_d1 = d1 - min(d1 / 2, F(1, 7))
            down = Params((down_d1, down_d1 + d2, down_d1 + d2 + d3), wall.p)
            down_report = classify(down)
            assert down_report.graph != K(3)
            assert (1, 3) not in down_report.graph.edges


def test_criterion_4_catalan_counts_and_bijection():
    with budget("4: Catalan counts and Dyck bijection", 10.0):
        assert [len(enumerate_dc(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
        for n in range(2, 7):
            connected = [g for g in enumerate_dc(n) if connected_component_of_one(g).n == n]
            assert len(connected) == catalan(n - 1)
        for n in range(1, 8):
            for g in enumerate_dc(n):
                assert dyck_to_dc(dc_to_dyck(g)) == g
        fig2 = DCGraph(5, frozenset({(1, 2), (1, 3), (2, 3), (4, 5)}))
        assert dc_to_dyck(fig2).word == "+++---++--"
        assert dyck_to_dc(dc_to_dyck(fig2)) == fig2


def test_criterion_5_adjacency_characterizations():
    with budget("5: adjacency predicates and Stanley covers (n <= 5)", 30.0):
        for n in range(1, 6):
            graphs = enumerate_dc(n)
            for g1 in graphs:
                for g2 in graphs:
                    if g1 == g2:
                        continue
                    adj = regions_adjacent(g1, g2)
                    assert adj.adjacent == is_antichain(g1.edges ^ g2.edges)
                    assert adj.adjacent == adjacency_mm_condition(g1, g2)
                    covering = stanley_covers(g1, g2) or stanley_covers(g2, g1)
                    assert covering == (adj.adjacent and adj.codim == 1)


def test_criterion_6_contraction_certificate():
    with budget("6: certified contraction (100 params per n in 2..5)", 30.0):
        rng = random.Random(33)
        tol = F(1, 10**6)
        for n in range(2, 6):
            for _ in range(100):
                params = random_mild_params(rng, n)
                lam = 1 - params.q[1] / params.q[n]
                s, _ = bounding_profiles(params)
                prev = None
                for _ in range(8):
                    s_new = iterate_breakpoints(params, s)
                    diff = max(abs(a - b) for a, b in zip(s_new, s))
                    if prev is not None and prev > 0:
                        assert diff <= lam * prev + F(1, 10**9)
                    prev = diff
                    s = s_new
                rep = fixed_point_solve(params, tol)
                exact = classify(params).z
                gap = max(abs(a - b) for a, b in zip(rep.profile.z, exact))
                assert gap <= tol
                assert rep.certified_error <= tol


def test_criterion_7_coupling_identity():
    with budget("7: coupling identity, 200 exact draws per n in 1..4", 30.0):
        rng = random.Random(55)
        for n in range(1, 5):
            for _ in range(200):
                params = random_rational_params(rng, n)
                x = random_bin_config(rng, params)
                t = random_duration(rng, 8)
                xt, _ = evolve_bins(x, params, t)
                yt, _ = step_cars(sigma(x, params), params, t)
                assert sigma(xt, params) == yt


def test_criterion_8_component_invariance_of_speed():
    with budget("8: period depends only on the component of vertex 1", 30.0):
        rng = random.Random(77)
        graphs = enumerate_dc(4)
        groups: dict[DCGraph, list[DCGraph]] = {}
        for g in graphs:
            groups.setdefault(connected_component_of_one(g), []).append(g)
        assert len(groups) == 9  # 1 + 1 + 2 + 5
        points = [random_rational_params(rng, 4) for _ in range(100)]
        value_vectors = {g: tuple(solve_system(g, params)[0] for params in points) for g in graphs}
        for members in groups.values():
            assert len({value_vectors[g] for g in members}) == 1
        # distinct period functions = distinct value vectors on 100 points
        assert len(set(value_vectors.values())) == 9
        for g1 in graphs:
            for g2 in graphs:
                same_component = connected_component_of_one(g1) == connected_component_of_one(g2)
                assert same_component == (value_vectors[g1] == value_vectors[g2])


def test_criterion_9_cyclic_orders():
    with budget("9: jump orders, fibers, zigzag law, probe coverage (n <= 4)", 300.0):
        # fiber sizes partition the (n-1)! total cyclic orders
        for n in range(2, 5):
            connected = [g for g in enumerate_dc(n) if connected_component_of_one(g).n == n]
            assert sum(len(circular_extensions(g)) for g in connected) == factorial(n - 1)

        # line-graph fibers follow the zigzag numbers 1, 1, 2, 5, ...;
        # the counts 2 and 5 appear at n = 4 and n = 5 (the partition
        # above leaves a single extension for the 3-vertex line graph)
        assert len(circular_extensions(L(3))) == 1
        assert len(circular_extensions(L(4))) == 2
        assert len(circular_extensions(L(5))) == 5

        # f_map inverts the jump order on random connected-region samples
        rng = np.random.default_rng(99)
        for n in range(2, 5):
            hits = 0
            while hits < 100:
                params = sample_params(rng, n)
                found = find_region(params)
                if found is None or found[1]:
                    continue
                graph = found[0]
                if connected_component_of_one(graph).n != n:
                    continue
                try:
                    order = jump_order(params, graph=graph)
                except WallTieError:
                    continue
                assert f_map(order) == graph
                assert order == replay_jump_order(params, graph, solve_system(graph, params))
                hits += 1

        # every fiber element is realized within the sampling budget
        for n in range(2, 5):
            for g in enumerate_dc(n):
                if connected_component_of_one(g).n != n:
                    continue
                report = conjecture_probe(g, budget=100000, seed=2024)
                assert report.covered, (sorted(g.edges), report.missing)
                assert report.samples <= 100000


def test_criterion_10_hydrodynamic_trend():
    with budget("10: stochastic model speed approaches the liquid speed", 300.0):
        summary = hydrolimit_check(FIG1, [20, 50, 200], steps=10**6, seed=7)
        liquid = summary.rows[0].liquid_speed
        assert abs(liquid - 4 / 9) < 1e-12
        gap_20 = summary.rows[0].gap
        gap_200 = summary.rows[-1].gap
        assert gap_200 < 0.05 * liquid
        assert gap_200 < gap_20
        for row in summary.rows:
            assert row.ci95 == row.ci95 and row.ci95 > 0  # reported, not NaN
        print(
            f"\n  s=20 gap {gap_20:.2e}, s=200 gap {gap_200:.2e} "
            f"(95% CI at 200: {summary.rows[-1].ci95:.2e})"
        )
