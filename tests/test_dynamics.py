import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liquidbin
from conftest import (
    ReferenceBinSim,
    ReferenceCarSim,
    random_bin_config,
    random_duration,
    random_rational_params,
    reference_evolve_bins,
    reference_step_cars,
    tied_phase_thresholds,
)
from liquidbin.dynamics import (
    BinConfig,
    CarConfig,
    CURSOR_JUMP,
    SIGN_CROSSING,
    cursors,
    evolve_bins,
    next_event_time,
    sigma,
    step_cars,
    windowed_volumes,
)
from liquidbin.params import Params, ParamsError

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
FIG1_BINS = BinConfig(front=2, volumes=(F(1), F(3, 2), F(3, 2)))
PERIOD = F(9, 8)


def test_config_validation():
    with pytest.raises(ValueError):
        BinConfig(front=0, volumes=())
    with pytest.raises(ValueError):
        BinConfig(front=0, volumes=(F(1), F(0)))
    with pytest.raises(ValueError):
        CarConfig((F(1), F(2)))  # not decreasing
    with pytest.raises(ValueError):
        CarConfig((F(1), F(-1)))


def test_bin_config_json_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        x = random_bin_config(rng, random_rational_params(rng, rng.randint(1, 5)))
        assert BinConfig.from_json_dict(json.loads(json.dumps(x.to_json_dict())), True) == x
    x = BinConfig(front=-2, volumes=(0.1, 1 / 3, 2.5e-300))
    assert BinConfig.from_json_dict(json.loads(json.dumps(x.to_json_dict())), False) == x
    for bad in (None, [], {"front": 1}, {"front": True, "volumes": [1]}, {"front": 1, "volumes": "1"}):
        with pytest.raises(ParamsError):
            BinConfig.from_json_dict(bad, True)


def test_cursors_examples():
    assert cursors(FIG1_BINS, FIG1) == (1, 1)
    huge = BinConfig(front=0, volumes=(F(10),))
    assert cursors(huge, FIG1) == (0, 0)
    x1, _ = evolve_bins(FIG1_BINS, FIG1, F(1, 4))
    assert cursors(x1, FIG1) == (2, 1)
    with pytest.raises(ValueError):
        cursors(BinConfig(front=0, volumes=(F(1),)), FIG1)


def test_sigma_partial_sums():
    y = sigma(FIG1_BINS, FIG1)
    assert y.positions == (F(1),)

    # all-equal bins give arithmetic positions
    params = Params((F(1), F(4)), (F(1), F(1)))
    x = BinConfig(front=0, volumes=(F(1, 2),) * 10)
    y = sigma(x, params)
    assert y.positions == tuple(F(k, 2) for k in range(7, 0, -1))


def test_sigma_gaps_are_bin_volumes():
    # unit-height reading: consecutive car gaps equal the bin volumes
    params = Params((F(1), F(5, 3), F(8, 3)), (F(1), F(1), F(1)))
    x = BinConfig(front=0, volumes=(F(1, 2), F(1), F(3, 2)))
    y = sigma(x, params)
    assert y.positions == (F(3, 2), F(1, 2))
    gaps = [y.positions[k] - y.positions[k + 1] for k in range(len(y.positions) - 1)]
    assert gaps == [F(1)]
    assert y.positions[-1] == x.volumes[0]


def test_next_event_time_fig1():
    y0 = sigma(FIG1_BINS, FIG1)
    dt, argmin = next_event_time(y0, FIG1)
    assert dt == F(1, 4)
    assert argmin == frozenset({(0, 1)})
    y1, log = step_cars(y0, FIG1, F(1, 4))
    assert [(ev.time, ev.index) for ev in log] == [(F(1, 4), 1)]  # final instant included
    dt2, _ = next_event_time(y1, FIG1)
    assert dt2 == F(1, 2)


def test_next_event_time_single_car():
    params = Params((F(2),), (F(3),))
    dt, argmin = next_event_time(CarConfig((F(1),)), params)
    assert dt == F(1, 3)
    assert argmin == frozenset({(0, 1)})


def test_step_cars_identity_and_period():
    y0 = sigma(FIG1_BINS, FIG1)
    same, log = step_cars(y0, FIG1, 0)
    assert same == y0 and log == ()
    shifted, log = step_cars(y0, FIG1, PERIOD)
    assert shifted == y0
    kinds = [(ev.kind, ev.index) for ev in log]
    assert kinds == [(SIGN_CROSSING, 1), (SIGN_CROSSING, 2)]
    assert [ev.time for ev in log] == [F(1, 4), F(3, 4)]
    assert [ev.location for ev in log] == [F(3, 2), F(5, 2)]


def test_step_cars_semigroup():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        params = random_rational_params(rng, n)
        y0 = sigma(random_bin_config(rng, params), params)
        t1, t2 = random_duration(rng, 10), random_duration(rng, 10)
        one_shot, _ = step_cars(y0, params, t1 + t2)
        mid, _ = step_cars(y0, params, t1)
        two_shot, _ = step_cars(mid, params, t2)
        assert one_shot == two_shot


def test_evolve_bins_fig1():
    x1, log = evolve_bins(FIG1_BINS, FIG1, F(1, 4))
    # bottom-left picture: bin 2 now holds 1.5, bin 3 still empty
    assert x1.front == 2
    assert x1.volume_at(2) == F(3, 2)
    assert x1.volume_at(3) == 0
    assert [(ev.kind, ev.index, ev.location) for ev in log] == [(CURSOR_JUMP, 1, 2)]

    same, log0 = evolve_bins(FIG1_BINS, FIG1, 0)
    assert windowed_volumes(same, FIG1) == windowed_volumes(FIG1_BINS, FIG1)
    assert log0 == ()

    x2, _ = evolve_bins(FIG1_BINS, FIG1, PERIOD)
    assert x2.front == FIG1_BINS.front + 1
    assert windowed_volumes(x2, FIG1) == windowed_volumes(FIG1_BINS, FIG1)


def test_coupling_identity_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        params = random_rational_params(rng, n)
        x = random_bin_config(rng, params)
        t = random_duration(rng, 10)
        xt, bin_log = evolve_bins(x, params, t)
        yt, car_log = step_cars(sigma(x, params), params, t)
        assert sigma(xt, params) == yt
        for log in (bin_log, car_log):
            assert all(e1.time <= e2.time for e1, e2 in zip(log, log[1:]))
        # coupled event streams agree on times and sign indices
        assert [(ev.time, ev.index) for ev in bin_log] == [
            (ev.time, ev.index) for ev in car_log
        ]


def test_coupling_identity_float_tolerance():
    # generic float data: boundary coincidences have probability zero
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        a, acc = [], 0.0
        for _ in range(n):
            acc += 0.2 + 2.5 * rng.random()
            a.append(acc)
        params = Params(tuple(a), tuple(0.2 + 2.0 * rng.random() for _ in range(n)))
        volumes, total = [], 0.0
        while total < params.a[-1]:
            v = 0.1 + 2.0 * rng.random()
            volumes.append(v)
            total += v
        x = BinConfig(front=rng.randint(-3, 5), volumes=tuple(volumes))
        t = 10 * rng.random()
        xt, _ = evolve_bins(x, params, t)
        yt, _ = step_cars(sigma(x, params), params, t)
        lhs, rhs = sigma(xt, params).positions, yt.positions
        assert len(lhs) == len(rhs)
        assert all(abs(u - v) < 1e-12 for u, v in zip(lhs, rhs))


@pytest.mark.parametrize("n", [5, 6])
def test_coupling_identity_float_at_larger_n(n):
    # the trajectory benchmark's check, at hundreds of events per run
    for seed in range(6):
        rng = random.Random(1000 * n + seed)
        a, acc = [], 0.0
        for _ in range(n):
            acc += 0.5 + rng.random()
            a.append(acc)
        params = Params(tuple(a), tuple((0.5 + rng.random()) / 5 for _ in range(n)))
        volumes, total = [], 0.0
        while total < params.a[-1]:
            volumes.append(0.2 + 0.8 * rng.random())
            total += volumes[-1]
        x = BinConfig(front=rng.randint(-3, 5), volumes=tuple(volumes))
        xt, bin_log = evolve_bins(x, params, 400.0)
        yt, car_log = step_cars(sigma(x, params), params, 400.0)
        assert len(bin_log) >= 500
        assert [ev.index for ev in bin_log] == [ev.index for ev in car_log]
        lhs, rhs = sigma(xt, params).positions, yt.positions
        assert len(lhs) == len(rhs)
        assert max(abs(u - v) for u, v in zip(lhs, rhs)) <= 1e-9


def test_evolve_bins_semigroup():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        params = random_rational_params(rng, n)
        x0 = random_bin_config(rng, params)
        t1, t2 = random_duration(rng, 10), random_duration(rng, 10)
        one_shot, log = evolve_bins(x0, params, t1 + t2)
        mid, log1 = evolve_bins(x0, params, t1)
        two_shot, log2 = evolve_bins(mid, params, t2)
        assert two_shot.front == one_shot.front
        assert windowed_volumes(two_shot, params) == windowed_volumes(one_shot, params)
        assert log == log1 + tuple(replace(ev, time=t1 + ev.time) for ev in log2)


def test_bin_pending_times_match_definitions():
    # cached rates and one-sweep tails against their definitions, exactly:
    # rate q_{m+1} with m the last stream whose cursor is at or right of c_i.
    # The generic loop lists the pending times; the compiled loop, run
    # for the same steps, must hold the same state after each
    from liquidbin.dynamics import _BinSim

    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 5)
        params = random_rational_params(rng, n)
        x0 = random_bin_config(rng, params)
        sim, ref = _BinSim(x0, params), ReferenceBinSim(x0, params)
        for _ in range(30):
            x, c = ref.to_config(), ref.c
            assert cursors(x, params) == tuple(c)
            rates = [params.q[max(j for j in range(n) if c[j] >= c[i]) + 1] for i in range(n)]
            tails = [sum(x.volume_at(k) for k in range(c[i] + 1, x.front + 1)) for i in range(n)]
            times, _ = ref._pending()
            assert times == [(params.a[i] - tails[i]) / rates[i] for i in range(n)]
            dt = ref.next_event()[0]
            ref.run(dt)
            sim.run(dt)
            assert (sim.front, sim.c, sim.vol, sim.t) == (ref.front, ref.c, ref.vol, ref.t)
        assert sim.event_log() == ref.event_log()


def test_cursor_one_jump_gaps_bounded():
    # upper bound a_1/q_1 holds from any start; the lower bound a_1/q_N
    # is a stationary-regime bound (transients can undercut it: N=1,
    # a=1, p=1, bins (0.5, 0.4, 10) gives a 0.5 gap), so both bounds are
    # asserted along the stationary evolution only
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        params = random_rational_params(rng, n)
        x = random_bin_config(rng, params)
        horizon = 8 * params.a[0] / params.q[1]
        _, log = evolve_bins(x, params, horizon)
        jumps_1 = [ev.time for ev in log if ev.index == 1]
        lo, hi = params.a[0] / params.q[n], params.a[0] / params.q[1]
        for t_prev, t_next in zip(jumps_1, jumps_1[1:]):
            assert t_next - t_prev <= hi

    from liquidbin.regions import classify
    from liquidbin.stationary import StationaryProfile, canonical_configuration

    for seed in range(6):
        rng = random.Random(100 + seed)
        params = random_rational_params(rng, rng.randint(1, 3))
        report = classify(params)
        y0 = canonical_configuration(StationaryProfile(report.z), params)
        _, log = step_cars(y0, params, 5 * report.z[0])
        crossings_1 = [ev.time for ev in log if ev.index == 1]
        lo, hi = params.a[0] / params.q[params.n], params.a[0] / params.q[1]
        assert len(crossings_1) >= 3
        for t_prev, t_next in zip(crossings_1, crossings_1[1:]):
            assert lo <= t_next - t_prev <= hi
            assert t_next - t_prev == report.z[0]


def test_volume_conservation():
    rng = random.Random(37)
    exact_hits = 0
    for _ in range(25):
        n = rng.randint(1, 4)
        params = random_rational_params(rng, n)
        x, _ = evolve_bins(random_bin_config(rng, params), params, 0)  # trim to window
        t = random_duration(rng, 6)
        xt, log = evolve_bins(x, params, t)
        poured = t * params.q[n]
        # window trimming only discards liquid below cursor N
        assert xt.total <= x.total + poured
        assert xt.total >= params.a[-1]
        if not any(ev.index == n for ev in log):
            # cursor N never jumped: nothing got trimmed, conservation exact
            assert xt.total == x.total + poured
            exact_hits += 1
    assert exact_hits >= 3


def test_fronts_and_positions_monotone():
    rng = random.Random(41)
    params = random_rational_params(rng, 3)
    x = random_bin_config(rng, params)
    y = sigma(x, params)
    fronts, firsts = [], []
    for k in range(8):
        t = F(k, 2)
        xt, _ = evolve_bins(x, params, t)
        yt, _ = step_cars(y, params, t)
        fronts.append(xt.front)
        if yt.positions:
            firsts.append(yt.positions[0])
    assert fronts == sorted(fronts)


def test_car_speeds_never_decrease():
    # the sign index seen by a fixed car is nondecreasing along the run;
    # the generic loop exposes the speeds, and the fused loop, run for the
    # same steps, must hold the same cars after each
    rng = random.Random(43)
    from liquidbin.dynamics import _CarSim

    for _ in range(10):
        params = random_rational_params(rng, 3)
        y = sigma(random_bin_config(rng, params), params)
        sim, ref = _CarSim(y, params), ReferenceCarSim(y, params)
        horizon = 6 * params.a[0] / params.q[1]
        seen: dict[int, int] = {}
        remaining = horizon
        while remaining > 0:
            nxt = ref.next_event()
            if nxt is None or nxt[0] > remaining:
                break
            # next_event caches the speeds of the current positions
            speeds = ref.speeds
            assert len(speeds) == len(ref.ids)
            for cid, v in zip(ref.ids, speeds):
                rank = list(params.q).index(v)
                assert seen.get(cid, 0) <= rank
                seen[cid] = max(seen.get(cid, 0), rank)
            ref.run(nxt[0])
            sim.run(nxt[0])
            # the fused loop keeps no id list: its ids are the contiguous
            # range that ends below _next_id
            ids = list(range(sim._next_id - len(sim.pos), sim._next_id))
            assert (sim.pos, ids, sim.t) == (ref.pos, ref.ids, ref.t)
            remaining -= nxt[0]
        assert sim.crossings == ref.crossings


def test_bin_state_starts_at_cursor_n():
    # bins left of cursor N are dropped at start-up and as cursor N jumps
    from liquidbin.dynamics import _BinSim

    params = Params((1.0, 2.3, 3.1), (0.7, 0.4, 0.9))
    sim = _BinSim(BinConfig(front=4, volumes=(0.5,) * 12), params)

    def holds_cursor_n_to_front():
        # vol[k] is bin c_N + k, and the cached cursors are those of the state
        return (len(sim.vol) == sim.front - sim.c[-1] + 1
                and cursors(sim.to_config(), params) == tuple(sim.c))

    assert holds_cursor_n_to_front() and len(sim.vol) == 7
    sim.run(400.0)
    assert sum(1 for ev in sim.event_log() if ev.index == params.n) > 100
    assert holds_cursor_n_to_front()


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        evolve_bins(FIG1_BINS, FIG1, -1)
    with pytest.raises(ValueError):
        step_cars(CarConfig(()), FIG1, F(-1))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_duration_rejected(t):
    # unchecked, nan would run no event and inf would never end
    float_params = Params((1.5, 2.5), (0.5, 1.5))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve_bins(BinConfig(front=2, volumes=(1.0, 1.5, 1.5)), float_params, t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        step_cars(CarConfig((1.0,)), float_params, t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        step_cars(sigma(FIG1_BINS, FIG1), FIG1, t)


def _floats(params: Params, x: BinConfig) -> tuple[Params, BinConfig]:
    return (Params(tuple(map(float, params.a)), tuple(map(float, params.p))),
            BinConfig(x.front, tuple(map(float, x.volumes))))


def _assert_matches_reference(x: BinConfig, params: Params, t) -> None:
    """Both simulators against the generic loop, by repr of the result
    configuration and of every event, and next_event_time against the
    generic loop's first batch."""
    assert repr(evolve_bins(x, params, t)) == repr(reference_evolve_bins(x, params, t))
    y = sigma(x, params)
    assert repr(step_cars(y, params, t)) == repr(reference_step_cars(y, params, t))
    dt, batch = ReferenceCarSim(y, params).next_event()
    assert repr(next_event_time(y, params)) == repr((dt, frozenset(batch)))


@pytest.mark.parametrize("n", range(1, 9))
def test_loops_match_reference_seeded(n):
    rng = random.Random(500 + n)
    for k in range(12):
        params = random_rational_params(rng, n)
        x = random_bin_config(rng, params)
        t = random_duration(rng, 30)
        if k % 2:
            params, x = _floats(params, x)
            t = 3 * float(t)
            if not x.total >= params.a[-1]:  # rounding may drop the window below a_N
                continue
        _assert_matches_reference(x, params, t)


def test_loops_match_reference_on_tied_thresholds():
    # unit rates and integer thresholds and volumes: many events tie, in
    # exact mode exactly and in float mode within the relative 1e-12
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 7)
        params = Params(tuple(map(F, tied_phase_thresholds(rng, n))), (F(1),) * n)
        volumes = [F(rng.randint(1, 3)) for _ in range(int(params.a[-1]))]
        x = BinConfig(front=rng.randint(-3, 5), volumes=tuple(volumes))
        t = F(rng.randint(1, 12 * n))
        _assert_matches_reference(x, params, t)
        params, x = _floats(params, x)
        _assert_matches_reference(x, params, float(t))


def test_loops_match_reference_at_event_times_and_zero():
    # durations that end exactly on an event apply it; zero moves nothing
    rng = random.Random(67)
    for k in range(40):
        params = random_rational_params(rng, rng.randint(1, 6))
        x = random_bin_config(rng, params)
        if k % 2:
            params, x = _floats(params, x)
            if not x.total >= params.a[-1]:
                continue
        _assert_matches_reference(x, params, 0 * params.a[0])
        _, log = reference_evolve_bins(x, params, 3 * params.a[0] / params.q[1])
        for ev in log[:: max(1, len(log) // 5)]:
            _assert_matches_reference(x, params, ev.time)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 9), min_size=n, max_size=n),
    st.lists(st.integers(1, 9), min_size=n, max_size=n),
    st.lists(st.integers(1, 9), min_size=1, max_size=3 * n),
    st.integers(-3, 5),
    st.integers(0, 60),
    st.booleans())))
# a two-car first batch whose crossings reach the set in the other order
# when frozen in sign order: the sets are equal but print differently
@example(([1, 1, 5, 2, 1, 3, 9, 9], [1, 1, 1, 1, 1, 1, 1, 2], [1, 9, 2, 9, 9], 0, 0, False))
def test_loops_match_reference_hypothesis(case):
    gaps, rates, volumes, front, t, exact = case
    params = Params(tuple(F(sum(gaps[: i + 1]), 2) for i in range(len(gaps))), tuple(map(F, rates)))
    volumes = [F(v, 3) for v in volumes]
    while sum(volumes) < params.a[-1]:
        volumes.append(F(1))
    x = BinConfig(front, tuple(volumes))
    if exact:
        _assert_matches_reference(x, params, F(t, 4))
    else:
        params, x = _floats(params, x)
        if x.total >= params.a[-1]:
            _assert_matches_reference(x, params, t / 4)


def test_simulate_non_finite_duration_exits_2(tmp_path):
    # in a subprocess under a timeout, since an unchecked infinite duration hangs
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"a": [1.5, 2.5], "p": [0.5, 1.5],
                                  "bins": {"front": 2, "volumes": [1, 1.5, 1.5]}}))
    src = str(Path(liquidbin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for t in ("nan", "inf", "1e400", "-inf"):
        proc = subprocess.run(
            [sys.executable, "-m", "liquidbin.cli", "simulate", "--params", str(params), f"--t={t}"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, (t, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == "error: duration must be finite and nonnegative\n"
