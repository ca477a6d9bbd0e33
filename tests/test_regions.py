import itertools
import math
import random
import time
import weakref
from dataclasses import fields, replace
from fractions import Fraction as F
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dyck_words,
    gap_edges,
    random_rational_params,
    reference_b,
    reference_gap_b,
    reference_walk,
    tied_phase_thresholds,
)
from liquidbin import combinatorics, regions
from liquidbin.combinatorics import (
    DCGraph,
    DyckPath,
    addable_edges,
    all_pairs,
    b_map,
    b_to_dc,
    connected_component_of_one,
    dc_to_dyck,
    dyck_to_dc,
    enumerate_dc,
    graph_index,
    maximal_edges,
)
from liquidbin.cyclic import sample_params
from liquidbin.params import Params, ParamsError
from liquidbin.regions import (
    RegionReport,
    SweepGrid,
    big_gamma,
    boundary_gap,
    check_continuity,
    classify,
    find_region,
    float_solution,
    gamma,
    in_region,
    in_region_report,
    solve_system,
    solve_system_triangular,
    speed,
    sweep,
    system_residual,
)
from liquidbin.stationary import fixed_point_solve, stationary_profile

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
WALL3 = Params((F(1), F(2), F(3)), (F(1), F(1), F(1)))
K = DCGraph.complete
L = DCGraph.line


def test_gamma_line_and_complete():
    rng = random.Random(1)
    for n in (3, 4, 5):
        params = random_rational_params(rng, n)
        for i in range(1, n):
            assert gamma(L(n), params, (i, i + 1)) == params.p[i] / params.q[i]
        for j in range(2, n + 1):
            assert gamma(K(n), params, (1, j)) == (params.q[n] - params.q[j - 1]) / params.q[1]
        for i in range(2, n):
            for j in range(i + 1, n + 1):
                assert gamma(K(n), params, (i, j)) == 0


def test_gamma_k3_zero_weight():
    params = Params((F(1), F(2), F(3)), (F(1), F(1), F(1)))
    assert gamma(K(3), params, (2, 3)) == 0


def test_gamma_rejects_non_edges():
    with pytest.raises(ValueError):
        gamma(L(3), WALL3, (1, 3))


def test_big_gamma_identity_and_empty():
    rng = random.Random(2)
    params = random_rational_params(rng, 4)
    for i in range(1, 5):
        assert big_gamma(K(4), params, i, i) == 1
    assert big_gamma(DCGraph.empty(4), params, 1, 2) == 0
    with pytest.raises(ValueError):
        big_gamma(K(4), params, 3, 2)


def test_big_gamma_line_product_formula():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        params = random_rational_params(rng, n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                expected = (
                    F(1)
                    if i == j
                    else prod((params.p[h - 1] for h in range(i + 1, j + 1)), start=F(1))
                    / prod((params.q[h] for h in range(i, j)), start=F(1))
                )
                assert big_gamma(L(n), params, i, j) == expected


def test_big_gamma_against_path_enumeration():
    """Independent oracle: sum edge-weight products over explicitly
    enumerated increasing paths."""

    def paths(g, i, j):
        if i == j:
            yield ()
            return
        for h in range(i + 1, j + 1):
            if (i, h) in g.edges:
                for rest in paths(g, h, j):
                    yield ((i, h),) + rest

    rng = random.Random(4)
    for n in range(2, 6):
        params = random_rational_params(rng, n)
        for g in enumerate_dc(n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    brute = sum(
                        (prod((gamma(g, params, e) for e in path), start=F(1)) for path in paths(g, i, j)),
                        start=F(0),
                    )
                    assert big_gamma(g, params, i, j) == brute, (n, sorted(g.edges), i, j)


def test_solve_system_examples():
    assert solve_system(K(2), FIG1) == (F(9, 8), F(1, 2))
    # paper boundary base point: edgeless graph at a=(1,3), p=(1,1) has
    # z1 = z2 = 1 (z1 - Z_{1,2} vanishes there)
    base = Params((F(1), F(3)), (F(1), F(1)))
    assert solve_system(DCGraph.empty(2), base) == (F(1), F(1))


def test_solve_system_complete_closed_form():
    rng = random.Random(5)
    for n in range(1, 6):
        params = random_rational_params(rng, n)
        z = solve_system(K(n), params)
        qn = params.q[n]
        assert z[0] == sum((qn - params.q[j - 1]) * params.d[j - 1] for j in range(1, n + 1)) / qn**2


def test_solve_system_line_closed_form():
    rng = random.Random(6)
    for n in range(2, 6):
        params = random_rational_params(rng, n)
        p, d, q = params.p, params.d, params.q
        num = sum(p[j] * prod((p[h - 1] / q[h] for h in range(1, j + 1)), start=F(1)) for j in range(n))
        den = sum(d[j - 1] * prod((p[h - 1] / q[h] for h in range(1, j + 1)), start=F(1)) for j in range(1, n + 1))
        assert speed(L(n), params) == num / den


def test_triangular_oracle_and_residual():
    rng = random.Random(7)
    for n in range(1, 6):
        params = random_rational_params(rng, n)
        for g in enumerate_dc(n):
            z = solve_system(g, params)
            assert solve_system_triangular(g, params) == z
            assert system_residual(g, params, z) == 0


def test_size_reduction_shortcut():
    # vertices outside B (same b value as their predecessor) satisfy
    # z_i = d_i / q_{b(i-1)}
    rng = random.Random(8)
    for n in range(2, 6):
        params = random_rational_params(rng, n)
        for g in enumerate_dc(n):
            z = solve_system(g, params)
            for i in range(2, n + 1):
                if b_map(g, i - 1) == b_map(g, i):
                    assert z[i - 1] == params.d[i - 1] / params.q[b_map(g, i - 1)]


def test_speed_examples():
    assert speed(K(2), FIG1) == F(8, 9)
    norm = Params((F(3, 5), F(1)), (F(1, 4), F(3, 4)))
    assert speed(K(2), norm) == F(10, 9)  # 1/(1 - p1 (1 - a1))
    edgeless = Params((F(3, 10), F(1)), (F(9, 10), F(1, 10)))
    assert classify(edgeless).graph == DCGraph.empty(2)
    assert classify(edgeless).speed == F(3)  # p1/a1


def test_in_region_examples():
    assert in_region(K(2), FIG1)
    assert not in_region(DCGraph.empty(2), FIG1)
    # complete-region criterion: q_N d_1 > sum_{j>=2} q_{j-1} d_j
    rng = random.Random(9)
    holds = 0
    for _ in range(40):
        params = random_rational_params(rng, rng.randint(2, 4))
        n = params.n
        criterion = params.q[n] * params.d[0] > sum(
            params.q[j - 1] * params.d[j - 1] for j in range(2, n + 1)
        )
        assert in_region(K(n), params) == criterion
        holds += criterion
    assert 0 < holds < 40
    # the shared wall point belongs to the line region, not the complete one
    assert in_region(L(3), WALL3)
    assert not in_region(K(3), WALL3)


def test_positivity_inside_regions():
    rng = random.Random(10)
    for _ in range(40):
        params = random_rational_params(rng, rng.randint(1, 5))
        report = classify(params)
        assert all(zi > 0 for zi in report.z)


def test_classify_fig1():
    report = classify(FIG1)
    assert report.graph == K(2)
    assert report.dyck.word == "++--"
    assert report.z == (F(9, 8), F(1, 2))
    assert report.speed == F(8, 9)
    assert report.verified and not report.ambiguous
    assert report.boundary_flags == frozenset()
    assert report.finite_time_absorption
    # read off b(1) = N: true for the complete graph alone, at every N
    for n in range(1, 8):
        for g in enumerate_dc(n):
            assert replace(report, graph=g).finite_time_absorption == (g == DCGraph.complete(n))


def _interior_point(g):
    """Exact unit-rate parameters inside the region of g, and their z,
    with z_1 = 1.  The breakpoint times are S_k = 1 + x_k, where x_1 = 0
    and x_j - x_i < 1 exactly when j <= b(i): the i < k with b(i) < k are
    a prefix 1..m, so x_k must lie in (max(x_m + 1, x_{k-1}), x_{m+1} + 1),
    and is taken at its midpoint (at x_m + 3/2 when m = k - 1).  The
    stationarity relations a_i = sum_j (S_i - S_j + S_1)_+ give the
    thresholds, as in tied_phase_thresholds."""
    b = g.b
    x = [F(0)]
    for k in range(2, g.n + 1):
        m = sum(b[i] < k for i in range(1, k))
        low = max(x[m - 1] + 1, x[-1]) if m else x[-1]
        high = x[m] + 1 if m < k - 1 else low + 1
        x.append((low + high) / 2)
    s = [1 + xi for xi in x]
    a = tuple(sum(max(si - sj + s[0], 0) for sj in s) for si in s)
    return Params(a, (F(1),) * g.n), (F(1), *(x[k] - x[k - 1] for k in range(1, g.n)))


def test_report_stores_five_fields_and_derives_dyck_and_speed_on_every_graph_to_n6():
    # classify lands on every graph at N <= 6 from a point inside its
    # region, exactly and in float; the report stores graph, z, verified,
    # boundary_flags and ambiguous, and reads dyck and speed off them
    assert [f.name for f in fields(RegionReport)] == ["graph", "z", "verified", "boundary_flags", "ambiguous"]
    for n in range(1, 7):
        for g in enumerate_dc(n):
            params, z = _interior_point(g)
            for point in (params, params.as_float()):
                report = classify(point)
                assert (report.graph, report.verified, report.boundary_flags, report.ambiguous) == (
                    g, True, frozenset(), False)
                assert report.dyck == dc_to_dyck(g) and dyck_to_dc(report.dyck) == g
                assert repr(report.speed) == repr(1 / report.z[0])
            assert classify(params).z == z and classify(params).speed == 1
            assert math.isclose(classify(params.as_float()).speed, 1, rel_tol=1e-12)


def test_classify_wall_point():
    report = classify(WALL3)
    assert report.graph == L(3)
    assert report.boundary_flags == frozenset({(1, 3)})
    assert report.speed == F(3, 2)
    assert not report.ambiguous  # exact mode: the tie is resolved, not guessed


def test_classify_float_wall_is_ambiguous():
    report = classify(WALL3.as_float())
    assert report.graph == L(3)
    assert report.boundary_flags == frozenset({(1, 3)})
    assert report.ambiguous


def test_classify_matches_region_scan():
    rng = random.Random(11)
    for _ in range(60):
        params = random_rational_params(rng, rng.randint(1, 4))
        report = classify(params)
        found = find_region(params)
        assert found is not None and found[0] == report.graph


def test_exact_vs_iterative_agreement():
    rng = random.Random(12)
    for _ in range(40):
        params = random_rational_params(rng, rng.randint(1, 4))
        z_exact = classify(params).z
        rep = fixed_point_solve(params.as_float(), 1e-10)
        assert all(abs(float(ze) - zi) < 1e-8 for ze, zi in zip(z_exact, rep.profile.z))


def test_boundary_gap_examples():
    for g in (K(3), L(3)):
        bg = boundary_gap(g, WALL3, (1, 3))
        assert bg.gap == 0 and bg.rescaled == 0
    positive_side = Params((F(3, 2), F(5, 2), F(7, 2)), (F(1), F(1), F(1)))
    bg = boundary_gap(K(3), positive_side, (1, 3))
    assert bg.gap > 0 and bg.rescaled > 0
    # the N=2 critical point p1 = a1/(1-a1) (normalized a2 = 1, p2 = 1-p1)
    a1 = F(3, 10)
    p1 = a1 / (1 - a1)
    crit = Params((a1, F(1)), (p1, 1 - p1))
    bg = boundary_gap(K(2), crit, (1, 2))
    assert bg.gap == 0 and bg.rescaled == 0
    with pytest.raises(ValueError):
        boundary_gap(K(3), WALL3, (2, 3))  # nested, not a wall edge


def test_boundary_gap_same_strict_sign():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        params = random_rational_params(rng, rng.randint(2, 4))
        g = classify(params).graph
        from liquidbin.combinatorics import addable_edges, maximal_edges

        for e in sorted(maximal_edges(g) | addable_edges(g)):
            bg = boundary_gap(g, params, e)
            assert (bg.gap > 0) == (bg.rescaled > 0)
            assert (bg.gap < 0) == (bg.rescaled < 0)
            assert (bg.gap == 0) == (bg.rescaled == 0)
            checked += 1
    assert checked > 50


def test_check_continuity():
    assert check_continuity(WALL3, K(3), L(3), 0)
    assert check_continuity(WALL3, K(3), K(3), 0)
    a1 = F(3, 10)
    p1 = a1 / (1 - a1)
    crit = Params((a1, F(1)), (p1, 1 - p1))
    assert check_continuity(crit, K(2), DCGraph.empty(2), 0)
    assert speed(K(2), crit) == speed(DCGraph.empty(2), crit) == p1 / a1
    with pytest.raises(ValueError):
        check_continuity(WALL3, K(3), DCGraph.empty(3), 0)


def test_wall_points_agree_across_adjacent_regions():
    # construct exact wall points for the (1,3) wall and check both sides
    rng = random.Random(14)
    for _ in range(20):
        q1 = F(rng.randint(1, 4), rng.randint(1, 2))
        q2 = q1 + F(rng.randint(1, 4), rng.randint(1, 2))
        q3 = q2 + F(rng.randint(1, 4), rng.randint(1, 2))
        d2 = F(rng.randint(1, 5), rng.randint(1, 3))
        d3 = F(rng.randint(1, 5), rng.randint(1, 3))
        d1 = (d2 * q1 + d3 * q2) / q3
        params = Params((d1, d1 + d2, d1 + d2 + d3), (q1, q2 - q1, q3 - q2))
        assert check_continuity(params, K(3), L(3), 0)
        report = classify(params)
        assert report.graph == L(3)
        assert (1, 3) in report.boundary_flags


def test_component_invariance_of_the_period():
    rng = random.Random(15)
    graphs = enumerate_dc(4)
    groups: dict[DCGraph, list[DCGraph]] = {}
    for g in graphs:
        groups.setdefault(connected_component_of_one(g), []).append(g)
    assert len(groups) == 9  # C0 + C1 + C2 + C3
    for _ in range(20):
        params = random_rational_params(rng, 4)
        values = {g: solve_system(g, params)[0] for g in graphs}
        for members in groups.values():
            first = values[members[0]]
            assert all(values[g] == first for g in members)
        assert len(set(values.values())) == len(groups)


def test_pn_to_zero_limit():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(2, 4)
        params = random_rational_params(rng, n)
        reduced = Params(params.a[:-1], params.p[:-1])
        z_reduced = classify(reduced).z
        tail_limit = params.d[-1] / params.q[n - 1]
        errors = []
        for eps in (F(1, 100), F(1, 10**4), F(1, 10**6)):
            z_eps = classify(Params(params.a, params.p[:-1] + (eps,))).z
            err = max(
                max(abs(z_eps[i] - z_reduced[i]) for i in range(n - 1)),
                abs(z_eps[-1] - tail_limit),
            )
            errors.append(err)
        assert errors[2] < errors[0]
        assert errors[2] < F(1, 10**4)


def test_interior_points_stable_under_perturbation():
    rng = random.Random(17)
    for _ in range(20):
        params = random_rational_params(rng, rng.randint(2, 4))
        report = classify(params)
        if report.boundary_flags:
            continue
        scale = max(params.a + params.p)
        wobble = F(1, 10**9) * scale
        signs = [F(1 if rng.random() < 0.5 else -1) for _ in range(2 * params.n)]
        new_a = tuple(x + s * wobble for x, s in zip(params.a, signs[: params.n]))
        new_p = tuple(x + s * wobble for x, s in zip(params.p, signs[params.n :]))
        assert classify(Params(new_a, new_p)).graph == report.graph


def test_sweep_two_regions_and_switch():
    values = [F(k, 100) for k in range(5, 100, 5)]
    grid = SweepGrid(n=2, fixed={"a1": F(3, 10), "a2": F(1), "p2": "1-p1"}, axes=[("p1", values)])
    records = sweep(grid, exact=True)
    labels = [rec.graph_id for rec in records]
    assert set(labels) == {0, 1}
    switches = [k for k in range(1, len(labels)) if labels[k] != labels[k - 1]]
    assert len(switches) == 1
    k = switches[0]
    assert values[k - 1] < F(3, 7) < values[k]
    assert all(rec.error == "" and not rec.on_wall for rec in records)


def test_sweep_single_region_when_a1_large():
    values = [F(k, 100) for k in range(5, 100, 5)]
    grid = SweepGrid(n=2, fixed={"a1": F(3, 5), "a2": F(1), "p2": "1-p1"}, axes=[("p1", values)])
    records = sweep(grid, exact=True)
    assert len({rec.graph_id for rec in records}) == 1


def test_sweep_single_point_matches_classify():
    grid = SweepGrid(
        n=2,
        fixed={"a1": F(3, 2), "a2": F(5, 2), "p2": F(3, 2)},
        axes=[("p1", [F(1, 2)])],
    )
    (rec,) = sweep(grid, exact=True)
    report = classify(FIG1)
    assert rec.graph_id == graph_index(report.graph)
    assert rec.dyck == report.dyck.word
    assert rec.speed == report.speed


def test_sweep_error_rows_for_invalid_points():
    grid = SweepGrid(n=2, fixed={"a2": F(1), "p1": F(1, 2), "p2": F(1, 2)}, axes=[("a1", [F(1, 2), F(2)])])
    records = sweep(grid, exact=True)
    assert records[0].error == ""
    assert records[1].error != "" and records[1].graph_id is None


def test_sweep_validates_coordinate_cover():
    with pytest.raises(ParamsError):
        sweep(SweepGrid(n=2, fixed={"a1": F(1)}, axes=[("p1", [F(1)])]))


def test_sweep_two_axes_row_major():
    grid = SweepGrid(
        n=1,
        fixed={},
        axes=[("a1", [F(1), F(2)]), ("p1", [F(1), F(3)])],
    )
    records = sweep(grid, exact=True)
    coords = [tuple(v for _, v in rec.coords) for rec in records]
    assert coords == [(F(1), F(1)), (F(1), F(3)), (F(2), F(1)), (F(2), F(3))]
    assert [rec.speed for rec in records] == [F(1), F(3), F(1, 2), F(3, 2)]


def test_in_region_report_flags_near_wall_floats():
    params = WALL3.as_float()
    ok, flags = in_region_report(L(3), params, 1e-9)
    assert ok and (1, 3) in flags


def test_sweep_parallel_output_matches_serial():
    values = [F(k, 20) for k in range(1, 19)]
    grid = SweepGrid(n=2, fixed={"a1": F(3, 10), "a2": F(1), "p2": "1-p1"}, axes=[("p1", values)])
    serial = sweep(grid, exact=True, jobs=1)
    parallel = sweep(grid, exact=True, jobs=2)
    assert serial == parallel


def test_classify_survives_extreme_contraction_factor():
    # the fixed-point iteration would stall here; the walk does not iterate it
    report = classify(Params((1.0, 2.0), (1e-4, 1.0)))
    assert report.graph == K(2)
    assert report.verified


def test_classify_float_proposal_with_coinciding_breakpoints():
    # the float fixed point puts z_2 at 0, where no profile can be built;
    # the walk's closed-form solves keep the two apart
    params = Params((1e16, 1e16 + 2), (1.0, 1.0))
    report = classify(params)
    assert report.graph == K(2)
    assert report.verified and not report.ambiguous
    assert find_region(params) == (K(2), frozenset())


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("n", range(2, 7))
def test_classify_matches_find_region_at_stalled_contraction(n, exact):
    # q_1/q_N <= 1e-5: the fixed-point iteration would need millions of
    # steps on these points; the walk reaches the region in a few solves
    rng = random.Random(n)
    for _ in range(5):
        params = random_rational_params(rng, n)
        p1 = sum(params.p[1:]) / (10**5 * rng.randint(1, 10))
        params = Params(params.a, (p1,) + params.p[1:])
        assert params.q[1] / params.q[n] <= F(1, 10**5)
        if not exact:
            params = params.as_float()
        report = classify(params)
        assert report.verified
        assert report.graph == find_region(params)[0]


def test_classify_exact_point_after_its_float_twin():
    # a float and an exact Params of equal value compare and hash equal;
    # classifying the float one first must not change the exact result
    params = Params((F(2), F(4), F(6)), (F(3), F(3), F(3)))
    assert classify(params.as_float()).ambiguous
    report = classify(params)
    assert report.graph == L(3) and report.boundary_flags == frozenset({(1, 3)})
    assert report.verified and not report.ambiguous
    assert report.z == (F(4, 9), F(2, 9), F(2, 9))


def test_int_params_classify_exactly_in_either_call_order():
    # int entries count as exact; they used to be divided in float, and
    # the float result then served the equal-hashing Fraction twin
    ints = Params((1, 2, 3), (1, 1, 1))
    fracs = Params((F(1), F(2), F(3)), (F(1), F(1), F(1)))
    for first, second in ((ints, fracs), (fracs, ints)):
        for params in (first, second):
            report = classify(params)
            assert report.graph == L(3) and report.verified and not report.ambiguous
            assert report.z == (F(2, 3), F(1, 3), F(1, 3))


def test_exactly_one_region_verifies():
    # the regions partition parameter space: exactly one graph passes the
    # membership test at any exact parameter point
    rng = random.Random(18)
    for _ in range(40):
        params = random_rational_params(rng, rng.randint(1, 4))
        verifying = [g for g in enumerate_dc(params.n) if in_region(g, params)]
        assert len(verifying) == 1


def test_exact_classify_at_n12_never_enumerates(forbid_enumeration):
    # C_12 = 208,012 graphs: a generic point must be located by the walk
    # and confirmed on its proposal, with no Catalan-sized list built
    params = random_rational_params(random.Random(1), 12)
    report = classify(params)
    assert report.verified and not report.ambiguous
    assert in_region(report.graph, params, report.z)


def _decimal_near_wall(rng: random.Random, n: int) -> Params:
    # a wall point scaled by 0.1 and written in decimals: the binary values
    # of the decimals lie a rounding error off the wall, on either side
    a = tied_phase_thresholds(rng, n)
    return Params(tuple(float(f"{x / 10}") for x in a), (0.1,) * n).as_exact()


def _proposal(params: Params) -> DCGraph:
    # the graph classify tries first at tol 0
    image = params.as_float()
    z = regions._walk(image.q, image.d)[1]
    return b_to_dc(regions._gap_b_of_n(len(z))(z, 1e-12 * z[0]))


def test_exact_classify_of_decimal_near_wall_points():
    # the proposal often misses these points; the exact walk still finds
    # the one region that holds them, with find_region's wall flags
    rng = random.Random(5)
    missed = 0
    for n in range(3, 7):
        for _ in range(10):
            params = _decimal_near_wall(rng, n)
            report = classify(params, tol=0)
            missed += report.graph != _proposal(params)
            assert report.verified and not report.ambiguous
            assert find_region(params) == (report.graph, report.boundary_flags)
    assert missed


@pytest.mark.parametrize("seed, distance", [(1, 1), (15, 2), (13, 3), (53, 3), (8, 4)])
def test_exact_classify_near_wall_at_n12_never_enumerates(forbid_enumeration, seed, distance):
    # the exact walk goes on from the proposal to the region, however many
    # edges away, with no Catalan-sized list built; float speed classifies
    # the binary value of its input the same way
    params = _decimal_near_wall(random.Random(seed), 12)
    report = classify(params, tol=0)
    assert len(report.graph.edges ^ _proposal(params).edges) == distance
    assert report.verified and not report.ambiguous
    assert in_region(report.graph, params, report.z)
    assert stationary_profile(params.as_float())[0].z == float_solution(report.z)


@pytest.mark.parametrize("n, k", [(6, 106), (7, 41), (9, 110), (9, 119)])
def test_ambiguous_float_report_names_the_region_of_the_binary_value(forbid_enumeration, n, k):
    # no graph is clear of the walls at tol 0.1 here: the report names the
    # exact region of the input's binary value, with its float solution
    rng = np.random.default_rng(n)
    for _ in range(k + 1):
        params = sample_params(rng, n)
    report = classify(params, tol=0.1)
    assert report.ambiguous
    assert report.graph == classify(params.as_exact(), tol=0).graph
    assert report.z == solve_system(report.graph, params)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_walk_that_comes_back_to_a_b_map_falls_back_to_find_region(cold_plans, monkeypatch, exact):
    # the walk has no termination proof: should its step cycle between two
    # graphs, the exhaustive scan still names the region.  Every b map
    # stays cold, so no walk ends clear and classify takes its proposal
    # from the patched gap_b even where the float walk ends on its first
    # graph (a hot b map's compiled step would end it clear)
    rng = random.Random(16)
    scans = []
    monkeypatch.setattr(regions, "find_region", lambda *a: scans.append(a) or find_region(*a))
    monkeypatch.setattr(regions, "_COMPILE_AFTER", math.inf)
    for n in range(3, 7):
        params = random_rational_params(rng, n)
        if not exact:
            params = params.as_float()
        want = find_region(params.as_exact())[0]
        cycle = itertools.cycle([g.b for g in enumerate_dc(n) if g != want][:2])
        with monkeypatch.context() as m:
            m.setattr(regions, "_gap_b_of_n", lambda n: lambda z, margin: next(cycle))
            report = classify(params)
        assert report.graph == want
        assert report.z == solve_system(want, params)
    assert len(scans) == 4


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_classify_agrees_with_find_region_on_sampled_points(tol):
    # conjecture_probe counts a sample for the graph classify reports when
    # it is unambiguous, where the exhaustive scan finds a graph without
    # wall flags; the two must be the same event
    rng = np.random.default_rng(2024)
    for n in range(2, 7):
        for _ in range(40):
            params = sample_params(rng, n)
            report = classify(params, tol=tol)
            found = find_region(params, tol=tol)
            clean = found is not None and not found[1]
            assert (not report.ambiguous) == clean
            if clean:
                assert report.graph == found[0]


RATIONALS = st.builds(F, st.integers(1, 100), st.integers(1, 100))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(RATIONALS, min_size=n, max_size=n), st.lists(RATIONALS, min_size=n, max_size=n)
)))
def test_float_classify_away_from_walls_matches_exact(gaps_rates):
    # an unambiguous float report is more than a guess: the exact closed
    # form confirms the same region
    gaps, rates = gaps_rates
    a = tuple(sum(gaps[:k + 1]) for k in range(len(gaps)))
    params = Params(a, tuple(rates))
    fl = classify(params.as_float())
    if not fl.ambiguous:
        exact = classify(params)
        assert exact.verified and not exact.ambiguous
        assert exact.graph == fl.graph


# a start graph from which z_1 rises after the first step: no potential
# led by z_1 proves that the walk ends, so the revisit guard stays
Z1_RISES = ((F(9), F(19, 2), F(97, 10), F(597, 10), F(1097, 10), F(1107, 10)),
            (F(1, 500), F(9, 1000), F(1, 125), F(1, 25), F(3, 500), F(500)),
            (1, 2, 2, 4, 4, 5, 6))


def test_z1_rises_on_a_walk_from_a_start_graph():
    a, p, b = Z1_RISES
    params = Params(a, p)
    z1s = []
    while True:
        g = b_to_dc(b)
        z = solve_system(g, params)
        z1s.append(z[0])
        if in_region(g, params, z):
            break
        b = regions._gap_b_of_n(6)(z, 0)
    assert z1s == [F(103500, 121), F(460945798300, 2000632148373), 4500, F(2214129092, 10002600169)]
    assert g == K(6)


SPREAD = st.builds(lambda x, k: x * F(10) ** k, RATIONALS, st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(SPREAD, min_size=n, max_size=n).map(lambda gaps: tuple(itertools.accumulate(gaps))),
    st.lists(SPREAD, min_size=n, max_size=n).map(tuple),
    dyck_words(n).map(lambda word: dyck_to_dc(DyckPath(word)).b),
)))
@example(Z1_RISES)
def test_exact_walk_from_any_start_graph_finds_the_region(case):
    # from any b map, the exact walk names the region of find_region, and
    # the walk itself ends there with the same flags unless it revisits
    a, p, b = case
    params = Params(a, p)
    g, z, flags = regions._exact_walk(params, b)
    assert (g, flags) == find_region(params)
    assert z == solve_system(g, params)
    wg, wz, wflags, clear = regions._walk(params.q, params.d, b)
    assert not clear
    assert wflags is None or (wg, wz, wflags) == (g, z, flags)


def test_classify_z_is_the_reported_graphs_solution_near_walls():
    # within tol of a wall the walk can end on a graph other than the one
    # reported; the walk's solution may stand in only for its own graph
    rng = random.Random(3)
    elsewhere = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        a = [rng.randint(1, 3) for _ in range(n)]
        a = [sum(a[:k + 1]) * (1 + 1e-11 * rng.uniform(-1, 1)) for k in range(n)]
        params = Params(tuple(a),
                        tuple(float(rng.randint(1, 3)) for _ in range(n)))
        report = classify(params)
        elsewhere += regions._walk(params.q, params.d)[0] != report.graph
        assert report.z == solve_system(report.graph, params)
    assert elsewhere


# ---------------------------------------------------------------------------
# the per-graph plan against the dense formula it replaced


def dense_tables_reference(g, params):
    """The dense tables: b map, every edge weight, and the full O(N^3)
    path-weight matrix by descending first-step decomposition."""
    n, q = params.n, params.q
    b = list(reference_b(g))
    gam = {}
    for (i, j) in g.edges:
        gam[(i, j)] = (q[b[i]] - q[max(j - 1, b[i - 1])]) / q[b[i - 1]]
    big = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n, 0, -1):
        big[i][i] = 1
        for j in range(i + 1, n + 1):
            big[i][j] = sum(gam[(i, h)] * big[h][j] for h in range(i + 1, min(j, b[i]) + 1))
    return b, gam, big


def dense_solve_reference(g, params):
    """The closed form over the dense matrix, every term included."""
    n, q, d = params.n, params.q, params.d
    b, _, big = dense_tables_reference(g, params)

    def gap_sum(i):
        return sum(big[i][j] * d[j - 1] / q[b[j - 1]] for j in range(i, n + 1))

    def rate_sum(i):
        return sum(big[i][j] * (q[b[j]] - q[b[j - 1]]) / q[b[j - 1]] for j in range(i, n + 1))

    z1 = gap_sum(1) / (1 + rate_sum(1))
    return (z1, *(gap_sum(i) - z1 * rate_sum(i) for i in range(2, n + 1)))


def dense_triangular_reference(g, params):
    n, q, d = params.n, params.q, params.d
    b, gam, _ = dense_tables_reference(g, params)
    aff = {}
    for i in range(n, 0, -1):
        u = d[i - 1] / q[b[i - 1]]
        w = -(q[b[i]] - q[b[i - 1]]) / q[b[i - 1]]
        for j in range(i + 1, b[i] + 1):
            u = u + gam[(i, j)] * aff[j][0]
            w = w + gam[(i, j)] * aff[j][1]
        aff[i] = (u, w)
    z1 = aff[1][0] / (1 - aff[1][1])
    return tuple(aff[i][0] + aff[i][1] * z1 if i > 1 else z1 for i in range(1, n + 1))


def dense_boundary_gap_reference(g, params, e):
    """boundary_gap over the dense matrix: its denominator sums every
    (k, l), k = i+1..j, l = k..N."""
    i, j = e
    n, q = params.n, params.q
    b, _, big = dense_tables_reference(g, params)
    z = dense_solve_reference(g, params)
    zij = sum(z[i:j])
    denom = 1 + sum(
        big[k][l] * (q[b[l]] - q[b[l - 1]]) / q[b[l - 1]]
        for k in range(i + 1, j + 1)
        for l in range(k, n + 1)
    )
    return regions.BoundaryGap(z[0] - zij, z[0] - (z[0] + (zij - z[0]) / denom))


def assert_plan_matches_dense_formula(g, params):
    """repr equality: same values, same types (0 vs 0.0 vs Fraction(0)),
    same bits."""
    n = g.n
    assert repr(solve_system(g, params)) == repr(dense_solve_reference(g, params))
    assert repr(solve_system_triangular(g, params)) == repr(dense_triangular_reference(g, params))
    b_ref, gam_ref, big_ref = dense_tables_reference(g, params)
    assert list(regions._plan_b(g.b).b) == b_ref
    assert repr([(e, gamma(g, params, e)) for e in sorted(g.edges)]) == repr(sorted(gam_ref.items()))
    assert repr([[big_gamma(g, params, i, j) for j in range(i, n + 1)] for i in range(1, n + 1)]) == repr(
        [big_ref[i][i:] for i in range(1, n + 1)])
    for e in (*maximal_edges(g), *addable_edges(g)):
        assert repr(boundary_gap(g, params, e)) == repr(dense_boundary_gap_reference(g, params, e))


def _float_and_exact_points(rng, n, k):
    """k seeded exact points with small rationals and k log-uniform float
    points (gaps and rates over [1e-2, 1e2])."""
    for _ in range(k):
        yield random_rational_params(rng, n)
        d = [10.0 ** rng.uniform(-2, 2) for _ in range(n)]
        yield Params(tuple(np.cumsum(d).tolist()), tuple(10.0 ** rng.uniform(-2, 2) for _ in range(n)))


def test_plan_solve_is_bit_identical_to_the_dense_formula_on_every_graph():
    rng = random.Random(10)
    for n in range(1, 7):
        for g in enumerate_dc(n):
            for params in _float_and_exact_points(rng, n, 2):
                assert_plan_matches_dense_formula(g, params)


@settings(max_examples=60, deadline=None)
@given(st.integers(7, 9).flatmap(lambda n: st.tuples(dyck_words(n), st.integers(0, 2**32), st.booleans())))
def test_plan_solve_is_bit_identical_at_larger_n(case):
    word, seed, exact = case
    g = dyck_to_dc(DyckPath(word))
    rng = random.Random(seed)
    points = list(_float_and_exact_points(rng, g.n, 1))
    assert_plan_matches_dense_formula(g, points[0 if exact else 1])


def test_plan_keeps_zero_weights_out_of_the_sums():
    # on K(N) every edge weight from i > 1 is an exact zero: only the N - 1
    # paths 1 -> j carry weight, one term each
    plan = regions._plan_b(K(6).b)
    assert [len(plan.gammas[i]) for i in range(1, 7)] == [5, 0, 0, 0, 0, 0]
    assert plan.paths[1] == tuple((j, (j,)) for j in range(2, 7))
    assert regions._plan_b(K(6).b) is plan  # cached by value
    assert regions._plan_b(DCGraph(6, frozenset(K(6).edges)).b) is plan


# ---------------------------------------------------------------------------
# the compiled kernel of a hot b map against the interpreted solve


def _mixed_point(rng, n):
    """Log-uniform gaps and rates over [1e-2, 1e2], each entry a float or,
    by a coin flip, a nearby Fraction: Params of mixed types."""
    def entry():
        x = 10.0 ** rng.uniform(-2, 2)
        return F(x).limit_denominator(10**6) if rng.random() < 0.5 else x
    d, p = [entry() for _ in range(n)], [entry() for _ in range(n)]
    return Params(tuple(itertools.accumulate(d)), tuple(p))


def assert_kernel_matches(g, points, mixed):
    """The compiled kernel against the interpreted solve and, on float and
    exact points, the dense formula: same repr, same element types.  (On
    mixed-type Params the dense float zero terms can turn an exact sum
    into a float, so the interpreted solve is the reference there.)"""
    plan = regions._plan_b(g.b)
    kernel, _ = regions._compile(plan)
    for params in (*points, *mixed):
        got = kernel(params.q, params.d)
        wants = [regions._interpret(plan, params.q, params.d)]
        if params in points:
            wants.append(dense_solve_reference(g, params))
        for want in wants:
            assert repr(got) == repr(want), (g, params)
            assert list(map(type, got)) == list(map(type, want)), (g, params)


def test_kernel_is_bit_identical_on_every_graph_to_n8():
    rng = random.Random(18)
    for n in range(1, 9):
        for g in enumerate_dc(n):
            assert_kernel_matches(g, list(_float_and_exact_points(rng, n, 1)), [_mixed_point(rng, n)])


def test_kernel_keeps_the_interpreted_bits_where_a_weight_overflows():
    # edge (2, 3) weighs (q_3 - q_2) / q_1 = 1e10 / 1e-300 = inf: the plan's
    # sums hold no 0 * inf terms, the dense ones do
    g = b_to_dc((1, 1, 3, 3))
    params = Params((1.0, 2.0, 3.0), (1e-300, 1.0, 1e10))
    assert gamma(g, params, (2, 3)) == math.inf
    assert_kernel_matches(g, [], [params])
    assert not all(map(math.isfinite, solve_system(g, params)))


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 20).flatmap(lambda n: st.tuples(dyck_words(n), st.integers(0, 2**32))))
def test_kernel_is_bit_identical_at_larger_n(case):
    word, seed = case
    g = dyck_to_dc(DyckPath(word))
    rng = random.Random(seed)
    assert_kernel_matches(g, list(_float_and_exact_points(rng, g.n, 1)), [_mixed_point(rng, g.n)])


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(regions, name)
    monkeypatch.setattr(regions, name, lambda plan, *args: calls.append(plan.b) or real(plan, *args))
    return calls


def test_a_find_region_pass_compiles_no_kernel(cold_plans, monkeypatch):
    compiled = _count_calls(monkeypatch, "_compile")
    # the empty graph, last in canonical order: the pass solves all C_8 graphs
    params = Params(tuple(itertools.accumulate(F(3) ** i for i in range(8))), (F(1),) * 8)
    assert find_region(params) == (DCGraph.empty(8), frozenset())
    assert regions._plan_b.cache_info().currsize == len(enumerate_dc(8))
    assert compiled == []
    assert all(regions._plan_b(g.b).kernel is None for g in enumerate_dc(8))


def test_a_hot_b_map_compiles_once_and_then_runs_its_kernel(cold_plans, monkeypatch):
    compiled = _count_calls(monkeypatch, "_compile")
    interpreted = _count_calls(monkeypatch, "_interpret")
    g = dyck_to_dc(DyckPath("++-+--+-+-"))
    params = _mixed_point(random.Random(5), 5)
    zs = {repr(solve_system(g, params)) for _ in range(regions._COMPILE_AFTER + 10)}
    assert compiled == [g.b]
    assert interpreted == [g.b] * regions._COMPILE_AFTER
    assert regions._plan_b(g.b).kernel is not None
    assert len(zs) == 1


def test_evicting_a_plan_drops_its_kernel(cold_plans):
    g = dyck_to_dc(DyckPath("++-+--+-+-"))
    params = _mixed_point(random.Random(6), 5)
    for _ in range(regions._COMPILE_AFTER + 1):
        solve_system(g, params)
    kernel = weakref.ref(regions._plan_b(g.b).kernel)
    step = weakref.ref(regions._plan_b(g.b).step)
    assert kernel() is not None and step() is not None
    for b in itertools.islice(combinatorics._b_maps(9), 4096):  # fills the cache
        regions._plan_b(b)
    assert kernel() is None and step() is None  # freed with their plan, no garbage collection needed
    assert regions._plan_b(g.b).kernel is None and regions._plan_b(g.b).solves == 0


def test_solve_system_rejects_parameters_of_another_size():
    with pytest.raises(ValueError, match="parameters for N = 3"):
        solve_system(K(4), WALL3)
    with pytest.raises(ValueError, match="parameters for N = 3"):
        solve_system(K(2), WALL3)


def gap_edges_reference(z, margin):
    """The all-sub-pairs filter the immediate-children closure replaced."""
    up = {(i, j) for (i, j) in all_pairs(len(z)) if z[0] - sum(z[i:j]) > margin}
    return frozenset(
        (i, j) for (i, j) in up
        if all((i2, j2) in up for i2 in range(i, j) for j2 in range(i2 + 1, j + 1))
    )


def test_gap_edges_closure_matches_the_sub_pair_filter():
    """The b map the walk steps to is that of the pair-set closure, which
    is the sub-pair filter: on vectors with negative, zero and nan
    entries (where the closure removes pairs), margins +-0, and on walk
    solutions."""
    rng = random.Random(11)
    cases = []
    for _ in range(2000):
        n = rng.randint(1, 9)
        z = [rng.choice([rng.uniform(-1, 2), 0.0, -0.0, float("nan")]) if rng.random() < 0.2
             else rng.uniform(-1, 2) for _ in range(n)]
        cases.append((z, rng.choice([0, 0.0, -0.0, 0.1, 0.5, 1.0])))
    for params in _float_and_exact_points(rng, 8, 20):
        image = params.as_float()
        cases.append((regions._walk(image.q, image.d)[1], 0))
    removed = nan = 0
    for z, margin in cases:
        n = len(z)
        want = gap_edges(z, margin)
        assert want == gap_edges_reference(z, margin)
        assert regions._gap_b_of_n(n)(z, margin) == reference_b(DCGraph(n, want)) == reference_gap_b(z, margin)
        up = {(i, j) for (i, j) in all_pairs(n) if z[0] - sum(z[i:j]) > margin}
        removed += len(up) - len(want)
        nan += any(x != x for x in z) and bool(want)
    assert removed and nan  # the closure step and nan gaps were exercised


def _gap_b_vectors(n):
    # z_1 mostly positive and the rest of mixed signs, small enough for
    # rows to run far: floats, exact zeros of every kind and Fractions
    head = st.one_of(st.floats(-0.5, 4), st.fractions(0, 4, max_denominator=9))
    entry = st.one_of(st.floats(-0.5, 1), st.sampled_from([0, 0.0, -0.0, F(0)]),
                      st.fractions(-1, 1, max_denominator=9))
    return st.tuples(head, *[entry] * (n - 1))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 20).flatmap(_gap_b_vectors),
       st.one_of(st.sampled_from([0, 0.0, F(0)]), st.floats(1e-12, 2), st.fractions(F(1, 10**6), 2)))
def test_compiled_gap_b_matches_the_interpreted_loop(z, margin):
    gap_b = regions._gap_b_of_n(len(z))
    assert gap_b(z, margin) == reference_gap_b(z, margin)
    assert gap_b(list(z), margin) == reference_gap_b(z, margin)


def test_gap_b_compiles_at_n60_within_a_second():
    # one flat if per pair, 1,770 of them: no indent limit, and a compile
    # fit for any N the package serves
    start = time.perf_counter()
    gap_b = regions._gap_b_of_n.__wrapped__(60)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(60)
    for scale in (0.001, 0.02, 0.05, 1.0):
        z = [1.0] + [scale * rng.uniform(-0.2, 1) for _ in range(59)]
        assert gap_b(z, 0) == reference_gap_b(z, 0)
    assert gap_b([1.0] + [0.01] * 59, 0) == (1, *[60] * 60)


def _wall_step_reference(g, z, tol):
    """(flags, clear) of the compiled step, from _region_gaps at tol 0
    (flags None where it fails) and the clear rules written out on the
    walls: inside, every wall on its side by the margin; outside, some
    wall on the wrong side by it."""
    ok, flags = regions._region_gaps(g, z, 0)
    if not ok:
        flags = None
    if tol is None:
        return flags, False
    z1 = z[0]
    margin, low = max(tol, 1e-12) * z1, -tol * z1
    gaps = [(z1 - sum(z[i:j]), is_maximal) for (i, j, is_maximal) in g.walls]
    if flags is None:
        return None, any(x < -margin if is_maximal else x > margin for x, is_maximal in gaps)
    clear = all(x >= 0 for x in z) and all(x > margin if is_maximal else x < low for x, is_maximal in gaps)
    return flags, clear


def test_compiled_step_matches_the_wall_tests_on_every_graph_to_n8():
    """The step of every graph at N <= 8, on points in its region and on
    others, float (at four tolerances) and exact (wall points too): z as
    the solve gives it, the verdict and flags of _region_gaps at tol 0,
    clear exactly where the rule holds, inside or outside.  Where it
    holds inside, the b map of gap_b at the proposal margin is the
    graph's and _region_gaps verifies unflagged; where it holds outside,
    _region_gaps fails at tol.  The interpreted tier's wall test gives
    the same verdicts, and never clear inside."""
    rng = random.Random(23)
    np_rng = np.random.default_rng(23)
    statuses = {"out": 0, "clear out": 0, "holds": 0, "flagged": 0, "clear": 0}
    for n in range(1, 9):
        floats = [sample_params(np_rng, n) for _ in range(20)]
        exact = [p.as_exact() for p in floats[:3]] + [random_rational_params(rng, n) for _ in range(4)]
        exact += [Params(tied_phase_thresholds(rng, n), (F(1),) * n) for _ in range(3)]
        home: dict[tuple, list[Params]] = {}
        for params in floats + exact:
            home.setdefault(classify(params, tol=0).graph.b, []).append(params)
        for g in enumerate_dc(n):
            plan = regions._plan_b(g.b)
            solve, step = regions._compile(plan)
            for params in home.get(g.b, []) + rng.sample(floats, 2) + rng.sample(exact, 2):
                for tol in ((None,) if params.is_exact else (None, 0, 1e-9, 1e-2, 0.1)):
                    z, gaps, clear = step(params.q, params.d, tol)
                    assert repr(z) == repr(solve(params.q, params.d))
                    flags, want_clear = _wall_step_reference(g, z, tol)
                    assert clear == want_clear, (g, params, tol)
                    assert (gaps is None) == (flags is None), (g, params, tol)
                    _, cold_gaps, cold_clear = regions._wall_test(g.walls, z, tol)
                    assert (cold_gaps is None) == (gaps is None) and cold_clear == (clear and gaps is None)
                    if gaps is None:
                        statuses["clear out" if clear else "out"] += 1
                        assert not regions._region_gaps(g, z, 0)[0]
                        assert not clear or not regions._region_gaps(g, z, tol)[0]
                    elif clear:
                        statuses["clear"] += 1
                        assert gaps == () and flags == frozenset()
                        assert regions._gap_b_of_n(n)(z, max(tol, 1e-12) * z[0]) == g.b
                        assert regions._region_gaps(g, z, tol) == (True, frozenset())
                    else:
                        statuses["holds"] += 1
                        statuses["flagged"] += bool(flags)
                        assert frozenset(w[:2] for w, x in zip(g.walls, gaps) if x == 0) == flags
                        assert regions._region_gaps(g, z, 0) == (True, flags)
                        assert cold_gaps == gaps
    assert all(statuses.values()), statuses


def test_classify_shortcut_gives_the_report_of_the_full_check(cold_plans, monkeypatch):
    # with every b map cold, no walk ends clear and classify checks every
    # proposal; with every b map hot, most float walks end clear and
    # classify takes the shortcut: the reports must be the same
    rng = np.random.default_rng(24)
    points = [sample_params(rng, n) for n in range(1, 9) for _ in range(40)]
    points += [p.as_exact() for p in points[::7]]
    tols = (0, 1e-9, 1e-2)
    monkeypatch.setattr(regions, "_COMPILE_AFTER", math.inf)
    checked = [repr(classify(p, tol=tol)) for tol in tols for p in points]
    images = [p.as_float() for p in points]
    assert not any(regions._walk(p.q, p.d, tol=1e-9)[3] for p in images)
    monkeypatch.setattr(regions, "_COMPILE_AFTER", 0)
    assert [repr(classify(p, tol=tol)) for tol in tols for p in points] == checked
    for tol in tols:
        assert sum(regions._walk(p.q, p.d, tol=tol)[3] for p in images) > len(points) // 2


def test_walk_on_b_maps_matches_the_graph_walk():
    """Same graph and repr-equal z as the walk on DCGraph values, on
    log-uniform points over 10^+-2, 10^+-5 and 10^+-300 at N = 1..12
    and on exact wall points."""
    rng = np.random.default_rng(14)
    points = []
    for k in range(2040):
        n = 1 + k % 12
        span = (2, 5, 300)[k % 3]
        a = sorted((10.0 ** rng.uniform(-span, span, n)).tolist())
        p = (10.0 ** rng.uniform(-span, span, n)).tolist()
        points.append(Params(tuple(a), tuple(p)))
    wall_rng = random.Random(14)
    for n in (5, 8, 10, 11):
        for _ in range(10):
            points.append(Params(tied_phase_thresholds(wall_rng, n), (1,) * n).as_float())
    for params in points:
        g, z, *_ = regions._walk(params.q, params.d)
        g_ref, z_ref = reference_walk(params)
        assert g == g_ref and repr(z) == repr(z_ref), params
        # edges put in sorted, so the graph prints as dyck_to_dc's does
        assert list(g.edges) == list(dyck_to_dc(dc_to_dyck(g)).edges)


@pytest.mark.parametrize("params, tol, iterations, certified_error, z", [
    (Params((1.5, 2.5), (0.5, 1.5)), 1e-12, 3, 0.0, (1.125, 0.5)),
    (Params((0.3, 1.1, 2.0, 2.2), (2.0, 0.1, 1.0, 3.0)), 1e-12, 63, 8.277656338151473e-13,
     (0.15, 0.39249999999999996, 0.1896955503520571, 0.032786885245901676)),
    (Params((0.25, 0.75, 1.0, 2.0, 3.5, 3.75), (1.0, 0.5, 0.25, 2.0, 0.75, 1.25)), 1e-12, 47,
     8.817391261572993e-13,
     (0.25, 0.3482142857142857, 0.1428571428571429, 0.28571428571439883, 0.2811594202899539,
      0.04347826086956519)),
    (Params((1, 3, 6), (4, 1, 1)), F(1, 10**6), 9, F(2128799, 7873200000000),
     (F(1, 4), F(3417969, 7812500), F(10825652128799, 19683000000000))),
], ids=["fig1", "n4", "n6", "exact"])
def test_fixed_point_solve_reports_are_pinned(params, tol, iterations, certified_error, z):
    """Values of the dense-table implementation; Params caching q and d
    must not move a bit of the iteration."""
    report = fixed_point_solve(params, tol)
    assert report.iterations == iterations
    assert repr(report.certified_error) == repr(certified_error)
    assert repr(report.profile.z) == repr(z)
