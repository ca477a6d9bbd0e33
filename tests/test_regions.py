import random
from fractions import Fraction as F
from math import prod

import pytest

from conftest import random_rational_params
from liquidbin.combinatorics import (
    DCGraph,
    b_map,
    connected_component_of_one,
    enumerate_dc,
    graph_index,
)
from liquidbin.params import Params, ParamsError
from liquidbin.regions import (
    SweepGrid,
    _scan,
    big_gamma,
    boundary_gap,
    check_continuity,
    classify,
    find_region,
    gamma,
    in_region,
    in_region_report,
    solve_system,
    solve_system_triangular,
    speed,
    sweep,
    system_residual,
)
from liquidbin.stationary import fixed_point_solve

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


def test_scan_without_the_true_region_reports_least_violation():
    # the region of this point is L(3), index 1; without it, K(3) (index 0)
    # and the graph {(2, 3)} (index 3) both miss by 1/3, and the tie goes
    # to the lower index however the candidates are ordered
    params = Params((F(1), F(3), F(5)), (F(1), F(1), F(1)))
    graphs = enumerate_dc(3)
    assert graphs[1] == L(3) and in_region(L(3), params)
    assert graphs[3] == DCGraph(3, frozenset({(2, 3)}))
    candidates = [(i, g) for i, g in enumerate(graphs) if i != 1]
    for order in (candidates, candidates[::-1]):
        report = _scan(order, params, 0)
        assert report.graph == K(3)
        assert report.z == solve_system(K(3), params)
        assert not report.verified
        assert report.ambiguous


def test_exactly_one_region_verifies():
    # the regions partition parameter space: exactly one graph passes the
    # membership test at any exact parameter point
    rng = random.Random(18)
    for _ in range(40):
        params = random_rational_params(rng, rng.randint(1, 4))
        verifying = [g for g in enumerate_dc(params.n) if in_region(g, params)]
        assert len(verifying) == 1
