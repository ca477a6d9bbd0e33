import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_mild_params, random_rational_params
from liquidbin.combinatorics import DCGraph
from liquidbin.cyclic import sample_params
from liquidbin.dynamics import CarConfig, sigma, step_cars
from liquidbin.params import Params
from liquidbin.regions import classify, solve_system
from liquidbin.stationary import (
    MAX_ITERATIONS,
    ConvergenceError,
    StationaryProfile,
    Trajectory,
    bounding_profiles,
    canonical_configuration,
    contraction_map,
    convergence_trace,
    fixed_point_solve,
    iterate_breakpoints,
    stationarity_residual,
    stationary_profile,
    verify_stationarity,
)

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))


def test_bounding_profiles_example():
    params = Params((F(1), F(3)), (F(1), F(1)))
    lower, upper = bounding_profiles(params)
    assert lower == (F(1), F(3))
    assert upper == (F(1, 2), F(3, 2))


def test_bounds_ordered():
    rng = random.Random(2)
    for _ in range(30):
        params = random_rational_params(rng, rng.randint(1, 5))
        lower, upper = bounding_profiles(params)
        assert all(u <= l for u, l in zip(upper, lower))


def test_fixed_point_fig1():
    rep = fixed_point_solve(FIG1.as_float(), 1e-12)
    assert abs(rep.profile.z[0] - 1.125) < 1e-12
    assert abs(rep.profile.z[1] - 0.5) < 1e-12
    assert abs(rep.profile.speed - 8 / 9) < 1e-12
    assert rep.contraction_factor == 0.75
    assert rep.certified_error <= 1e-12


def test_fixed_point_single_sign_closed_form():
    rep = fixed_point_solve(Params((F(7, 2),), (F(2, 3),)), 1e-12)
    assert rep.profile.z == (F(21, 4),)
    assert rep.iterations == 1
    assert rep.certified_error == 0


def test_fixed_point_wall_value():
    # on the boundary between the complete and line regions the period is 2/3
    rep = fixed_point_solve(Params((1.0, 2.0, 3.0), (1.0, 1.0, 1.0)), 1e-12)
    assert abs(rep.profile.z[0] - 2 / 3) < 1e-11
    assert abs(rep.profile.speed - 1.5) < 1e-10


def test_fixed_point_rejects_bad_tol():
    with pytest.raises(ValueError):
        fixed_point_solve(FIG1, 0)


def test_certificate_honored_against_exact_solution():
    rng = random.Random(3)
    tol = F(1, 10**6)
    for _ in range(20):
        params = random_mild_params(rng, rng.randint(2, 4))
        rep = fixed_point_solve(params, tol)
        exact = classify(params).z
        gap = max(abs(x - y) for x, y in zip(rep.profile.z, exact))
        assert gap <= tol
        assert rep.certified_error <= tol


def test_iterates_contract_with_factor_lambda():
    rng = random.Random(5)
    for _ in range(25):
        params = random_mild_params(rng, rng.randint(2, 4))
        lam = 1 - params.q[1] / params.q[params.n]
        s, _ = bounding_profiles(params)
        prev_diff = None
        for _ in range(12):
            s_new = iterate_breakpoints(params, s)
            diff = max(abs(a - b) for a, b in zip(s_new, s))
            if prev_diff is not None and prev_diff > 0:
                assert diff <= lam * prev_diff
            prev_diff = diff
            s = s_new


def test_contraction_map_pairwise_bound():
    # gap-dominated breakpoint vectors: the per-graph map contracts
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        params = random_rational_params(rng, n)
        lam = 1 - params.q[1] / params.q[n]
        gaps0 = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
        extra = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        s0, s1, acc0, acc1 = [], [], F(0), F(0)
        for g0, ex in zip(gaps0, extra):
            acc0 += g0
            acc1 += g0 + ex
            s0.append(acc0)
            s1.append(acc1)
        for graph in (DCGraph.complete(n), DCGraph.line(n), DCGraph.empty(n)):
            lhs = contraction_map(params, graph, tuple(s1))
            rhs = contraction_map(params, graph, tuple(s0))
            delta = max(abs(a - b) for a, b in zip(lhs, rhs))
            bound = max(abs(a - b) for a, b in zip(s1, s0))
            assert delta <= lam * bound
            assert all(a >= b for a, b in zip(lhs, rhs))


def test_stationary_breakpoints_are_the_fixed_point_of_the_region_graph_map():
    # T(G) of the region's graph G fixes the exact stationary breakpoint
    # times: its b map picks the terms of the stationarity relations
    rng = random.Random(15)
    for _ in range(60):
        params = random_rational_params(rng, rng.randint(1, 6))
        report = classify(params)
        s = StationaryProfile(report.z).breakpoint_times
        assert contraction_map(params, report.graph, s) == s


def test_sandwich_and_monotone_bounds():
    rng = random.Random(9)
    for _ in range(10):
        params = random_rational_params(rng, rng.randint(2, 4))
        lower, upper = bounding_profiles(params)
        star = classify(params).z
        s_star = []
        acc = F(0)
        for zi in star:
            acc += zi
            s_star.append(acc)
        lo, hi = lower, upper
        for _ in range(8):
            # trajectories increase along the slow side, so times decrease
            lo_next = iterate_breakpoints(params, lo)
            hi_next = iterate_breakpoints(params, hi)
            assert all(a <= b for a, b in zip(lo_next, lo))
            assert all(a >= b for a, b in zip(hi_next, hi))
            assert all(h <= s <= l for h, s, l in zip(hi_next, s_star, lo_next))
            lo, hi = lo_next, hi_next


def test_residuals():
    rep = fixed_point_solve(FIG1.as_float(), 1e-13)
    assert stationarity_residual(rep.profile, FIG1.as_float()) < 1e-10
    exact = StationaryProfile(classify(FIG1).z)
    assert stationarity_residual(exact, FIG1) == 0
    rng = random.Random(13)
    for _ in range(10):
        params = random_rational_params(rng, rng.randint(1, 4))
        prof = StationaryProfile(classify(params).z)
        assert stationarity_residual(prof, params) == 0


def test_canonical_configuration_and_verify():
    prof = StationaryProfile(solve_system(DCGraph.complete(2), FIG1))
    y0 = canonical_configuration(prof, FIG1)
    assert y0.positions == (F(3, 2),)
    assert verify_stationarity(y0, FIG1, 0, period=prof.period)
    nudged = CarConfig(tuple(x + F(1, 10) for x in y0.positions))
    assert not verify_stationarity(nudged, FIG1, F(1, 10**9), period=prof.period)


def test_verify_stationarity_single_sign():
    params = Params((F(2),), (F(3),))
    # any spacing-a_1 configuration is stationary when N = 1
    assert verify_stationarity(CarConfig((F(7, 10),)), params, 0, period=F(2, 3))
    assert verify_stationarity(CarConfig(()), params, 0, period=F(2, 3))


def test_verify_stationarity_computes_period_when_omitted():
    prof = fixed_point_solve(FIG1.as_float(), 1e-13).profile
    y0 = canonical_configuration(prof, FIG1.as_float())
    assert verify_stationarity(y0, FIG1.as_float(), 1e-9)


def test_verify_stationarity_finds_the_exact_period_itself():
    # with no period given, the exact closed-form period is used, so an
    # exact stationary configuration passes at tol 0
    params = Params((F(1), F(11, 5), F(17, 5)), (F(1), F(1), F(1)))
    y0 = canonical_configuration(stationary_profile(params)[0], params)
    assert verify_stationarity(y0, params, 0)


def test_stationary_profile_is_the_closed_form():
    rng = random.Random(23)
    for _ in range(20):
        params = random_rational_params(rng, rng.randint(1, 5))
        profile, bound = stationary_profile(params)
        assert profile.z == classify(params).z
        assert bound == 0 and isinstance(bound, F)


def test_stationary_profile_float_is_rounded_once_and_certified():
    # float input is solved exactly at its binary value: each z_i is the
    # nearest float to the exact one, and the bound covers the exact sup
    # distance of the breakpoint times
    rng = np.random.default_rng(29)
    for n in (2, 4, 7):
        for _ in range(15):
            params = sample_params(rng, n)
            exact = StationaryProfile(classify(params.as_exact()).z)
            profile, bound = stationary_profile(params)
            assert profile.z == tuple(float(zi) for zi in exact.z)
            rounded = StationaryProfile(tuple(F(zi) for zi in profile.z)).breakpoint_times
            assert isinstance(bound, float)
            assert bound >= max(abs(s - t) for s, t in zip(rounded, exact.breakpoint_times))
            assert bound <= 1e-15 * float(exact.breakpoint_times[-1])


def test_canonical_verifies_for_random_params():
    rng = random.Random(17)
    for _ in range(15):
        params = random_rational_params(rng, rng.randint(1, 4))
        prof = StationaryProfile(classify(params).z)
        y0 = canonical_configuration(prof, params)
        assert verify_stationarity(y0, params, 0, period=prof.period)


def test_convergence_trace_from_canonical_is_zero():
    prof = StationaryProfile(classify(FIG1).z)
    y0 = canonical_configuration(prof, FIG1)
    assert all(d == 0 for d in convergence_trace(y0, FIG1, 5, profile=prof))


def test_convergence_trace_defaults_to_the_exact_profile():
    params = Params((F(1), F(11, 5), F(17, 5)), (F(1), F(1), F(1)))
    y0 = canonical_configuration(StationaryProfile(classify(params).z), params)
    assert all(d == 0 for d in convergence_trace(y0, params, 5))


def test_convergence_trace_envelope():
    # a line-region point: distances decay within 2 q_N delta0 lambda^(k-1)
    params = Params((F(1), F(11, 5), F(17, 5)), (F(1), F(1), F(1)))
    prof = StationaryProfile(classify(params).z)
    dists = convergence_trace(CarConfig((F(1, 10),)), params, 12, profile=prof)
    lam = 1 - params.q[1] / params.q[3]
    lower, upper = bounding_profiles(params)
    delta0 = max(abs(u - l) for u, l in zip(upper, lower))
    assert dists[0] > 0
    for k in range(1, 13):
        assert dists[k] <= 2 * params.q[3] * delta0 * lam ** (k - 1)


def test_contraction_factor_arithmetic():
    params = Params((1.0, 2.0), (0.5, 1.5))
    rep = fixed_point_solve(params, 1e-10)
    assert rep.contraction_factor == 0.75


def test_trajectory_eval_and_inverse():
    prof = StationaryProfile(classify(FIG1).z)
    traj = Trajectory(FIG1, prof.breakpoint_times)
    for i, ai in enumerate(FIG1.a):
        assert traj.value(prof.breakpoint_times[i]) == ai
        assert traj.time_at(ai) == prof.breakpoint_times[i]


def test_rescaling_identities():
    rng = random.Random(19)
    for _ in range(15):
        params = random_rational_params(rng, rng.randint(1, 4))
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        z = classify(params).z
        scaled_a = classify(Params(tuple(lam * x for x in params.a), params.p)).z
        assert scaled_a == tuple(lam * zi for zi in z)
        scaled_p = classify(Params(params.a, tuple(lam * x for x in params.p))).z
        assert scaled_p == tuple(zi / lam for zi in z)


def test_stall_raises_instead_of_false_certificate():
    import pytest as _pytest
    from liquidbin.stationary import ConvergenceError

    # contraction factor within 1e-4 of 1: the float iteration cannot
    # certify 1e-17-ish thresholds and must say so
    params = Params((1.0, 2.0), (1e-4, 1.0))
    with _pytest.raises(ConvergenceError):
        fixed_point_solve(params, 1e-15, max_iterations=20000)


def test_iteration_budget_ends_a_threshold_below_one_ulp():
    # tol (1 - lambda) / lambda is about 3e-17, below one ulp of the
    # breakpoint times, so it is never met, and the differences do not
    # stall for 64 steps in a row; the lambda formula alone allows 2.76e8
    # iterations
    params = Params(
        (26.96206639027359, 30.59348207382051, 34.34226088500357, 34.70852566246669),
        (3.200071256816437e-05, 7.509788757169699, 0.020469711108697417, 29.225172763122576),
    )
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=f"at most {MAX_ITERATIONS} iterations"):
        fixed_point_solve(params, 1e-12 * (1 + params.a[-1]))
    assert time.perf_counter() - start < 5
