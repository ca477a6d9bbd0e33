import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liquidbin.ibm import (
    MAX_BURN_IN,
    MoveDistribution,
    _burn_in,
    _run_chain,
    deterministic_speed,
    hydrolimit_check,
    mu_s,
    simulate_ibm,
)
from liquidbin.params import Params
from liquidbin.regions import classify

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))


def reference_chain(counts, moves, window):
    """The chain one move at a time, trimming the back after every move."""
    displacement = 0
    counts_total = sum(counts)
    for xi in moves:
        cum = 0
        idx = 0
        while cum + counts[idx] < xi:
            cum += counts[idx]
            idx += 1
        if idx == 0:
            counts.insert(0, 1)
            displacement += 1
        else:
            counts[idx - 1] += 1
        counts_total += 1
        while counts_total - counts[-1] >= window:
            counts_total -= counts.pop()
    return counts, displacement


@st.composite
def chain_cases(draw):
    support = draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))
    if draw(st.booleans()):
        # one atom up to 150 widens the window over many bins: its moves
        # scan past the front two, and the small atoms' new front bins
        # grow the back long enough to be trimmed within one call
        support.add(draw(st.integers(13, 150)))
    support = sorted(support)
    window = support[-1]

    def draw_moves(longest):  # of a length drawn evenly: plain lists are mostly short
        size = draw(st.integers(0, longest))
        return draw(st.lists(st.sampled_from(support), min_size=size, max_size=size))

    start, _ = reference_chain([window], draw_moves(200), window)
    moves = draw_moves(300)
    cut = draw(st.integers(0, len(moves)))
    return start, moves, cut, window


@settings(max_examples=300, deadline=None)
@given(chain_cases())
def test_run_chain_matches_per_move_trim(case):
    start, moves, cut, window = case
    expected = reference_chain(list(start), moves, window)
    assert _run_chain(list(start), moves, window) == expected
    # split into two calls, as simulate_ibm runs its batches
    head, moved_head = _run_chain(list(start), moves[:cut], window)
    tail, moved_tail = _run_chain(head, moves[cut:], window)
    assert (tail, moved_head + moved_tail) == expected


def test_run_chain_trims_the_back_within_one_call():
    # every move opens a front bin, so the bins behind the front two grow
    # by one per move: only the trim inside the loop keeps them short
    # (without it they peak at about 330 KB in this call, and each insert
    # at the front shifts them all, so a long call turns quadratic)
    _run_chain([1], [1], 1)  # warm-up
    tracemalloc.start()
    try:
        counts, moved = _run_chain([1], itertools.repeat(1, 2 * 10**4), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (counts, moved) == ([1], 2 * 10**4)
    assert peak < 16 * 1024


def test_move_distribution_validation():
    with pytest.raises(ValueError):
        MoveDistribution((0,), (1.0,))
    with pytest.raises(ValueError):
        MoveDistribution((2, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        MoveDistribution((1, 2), (0.5, 0.6))
    with pytest.raises(ValueError):
        MoveDistribution((1,), (-1.0,))


def test_mu_s_examples():
    dist = mu_s(FIG1, 10)
    assert dist.support == (15, 25)
    assert abs(dist.weights[0] - 0.25) < 1e-15
    assert abs(dist.weights[1] - 0.75) < 1e-15

    single = Params((F(2),), (F(5),))
    assert mu_s(single, F(1, 2)).support == (1,)

    colliding = mu_s(Params((1.0, 1.4), (0.3, 0.7)), 2)
    assert colliding.support == (2,)
    assert abs(colliding.weights[0] - 1.0) < 1e-15

    with pytest.raises(ValueError):
        mu_s(single, 0.4)


@pytest.mark.parametrize("s", [math.inf, 1e19, F(10**19)], ids=["inf", "float-1e19", "exact-1e19"])
def test_mu_s_rejects_scales_beyond_int64_moves(s):
    with pytest.raises(ValueError, match="scale"):
        mu_s(FIG1, s)


def test_delta_one_speed_is_one():
    res = simulate_ibm(MoveDistribution((1,), (1.0,)), 500, seed=1)
    assert res.front_displacement == 500
    assert res.speed_estimate == 1.0


def test_speed_estimates_in_unit_interval():
    for seed in range(4):
        dist = mu_s(FIG1, 10 + seed)
        res = simulate_ibm(dist, 5000, seed=seed)
        assert 0 < res.speed_estimate <= 1
        assert res.front_displacement >= 0


def test_seed_reproducibility():
    dist = mu_s(FIG1, 25)
    a = simulate_ibm(dist, 20000, seed=99)
    b = simulate_ibm(dist, 20000, seed=99)
    assert a.front_displacement == b.front_displacement
    assert a.speed_estimate == b.speed_estimate
    assert a.occupancy == b.occupancy
    c = simulate_ibm(dist, 20000, seed=100)
    assert c.front_displacement != a.front_displacement or c.occupancy != a.occupancy


SMALL = MoveDistribution((1, 3, 4), (0.25, 0.25, 0.5))


@pytest.mark.parametrize(
    "dist, steps, displacement, occupancy, ci95",
    [
        pytest.param(SMALL, 1, 0, (1, 2, 4), None, id="1-0-occupancy0-None"),
        pytest.param(SMALL, 10**4 + 37, 3572, (1, 1, 2), 0.0042532405993500515,
                     id="10037-3572-occupancy1-0.0042532405993500515"),
        # a window of two bins of up to about 110 particles, as the benchmark runs
        pytest.param(mu_s(FIG1, 50), 10**5, 889, (71, 110), 0.0001370636323866512, id="fig1-s50"),
    ],
)
def test_seeded_chain_pinned(dist, steps, displacement, occupancy, ci95):
    # moves are drawn batch by batch; the seeded stream must not change
    res = simulate_ibm(dist, steps, seed=3)
    assert res.front_displacement == displacement
    assert res.speed_estimate == displacement / steps
    assert res.occupancy == occupancy
    if ci95 is None:
        assert math.isnan(res.ci95)  # a single batch has no spread
    else:
        assert res.ci95 == pytest.approx(ci95, rel=1e-12)


def test_deterministic_single_atom_matches_cycle_detection():
    for k in range(1, 9):
        dist = MoveDistribution((k,), (1.0,))
        exact = deterministic_speed(dist)
        assert exact == F(1, k)
        steps = exact.denominator * 240
        res = simulate_ibm(dist, steps, seed=0)
        assert F(res.front_displacement, steps) == exact


def test_deterministic_speed_rejects_random_dists():
    with pytest.raises(ValueError):
        deterministic_speed(mu_s(FIG1, 10))


def test_hydrolimit_plumbing():
    summary = hydrolimit_check(FIG1, [20, 50], steps=20000, seed=5)
    liquid = float(classify(FIG1.normalized_rates()).speed)
    assert len(summary.rows) == 2
    for row in summary.rows:
        assert row.liquid_speed == liquid
        assert row.gap == abs(row.s_times_v - liquid)
        assert row.atoms.support[0] >= 1
    assert summary.gap_first == summary.rows[0].gap
    assert summary.gap_last == summary.rows[-1].gap


def test_hydrolimit_reproducible():
    a = hydrolimit_check(FIG1, [20, 50], steps=10000, seed=5)
    b = hydrolimit_check(FIG1, [20, 50], steps=10000, seed=5)
    assert [r.v_hat for r in a.rows] == [r.v_hat for r in b.rows]


def test_burn_in_beyond_the_limit_is_refused():
    at_limit = MoveDistribution((MAX_BURN_IN // 10,), (1.0,))
    beyond = MoveDistribution((1, MAX_BURN_IN // 10 + 1), (0.5, 0.5))
    with pytest.raises(ValueError, match="limit of 100000000"):
        simulate_ibm(beyond, 10, seed=0)
    with pytest.raises(ValueError, match="limit"):
        hydrolimit_check(FIG1, [10, 4e7], 10, seed=0)  # refused before any chain runs
    assert _burn_in(at_limit) == MAX_BURN_IN


def test_burn_in_recorded():
    dist = mu_s(FIG1, 20)
    res = simulate_ibm(dist, 1000, seed=0)
    assert res.burn_in == 10 * dist.max_move
    assert res.rng == "numpy-pcg64"
    assert res.steps == 1000


def test_hydrolimit_parallel_matches_serial():
    serial = hydrolimit_check(FIG1, [20, 50], steps=5000, seed=5, jobs=1)
    parallel = hydrolimit_check(FIG1, [20, 50], steps=5000, seed=5, jobs=2)
    assert [r.v_hat for r in serial.rows] == [r.v_hat for r in parallel.rows]
    assert [r.seed for r in serial.rows] == [r.seed for r in parallel.rows]


def test_simulate_ibm_memory_stays_bounded():
    # the chain runs batch by batch: nothing the size of the step count is
    # kept (a whole-run move array would take about 8 MB here)
    dist = MoveDistribution((1, 2, 3), (0.2, 0.3, 0.5))
    simulate_ibm(dist, 1000, seed=0)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        simulate_ibm(dist, 10**6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize(
    "support, weights, steps",
    [
        # the 10 * max_move burn-in is drawn in batches too (one array of
        # it peaked at 4.8 MB)
        ((5000, 10000), (0.5, 0.5), 1000),
        # every move opens a front bin: the worst case for a window whose
        # back is trimmed only as it grows
        ((1,), (1.0,), 10**6),
        # a window of two bins of up to about 450 particles: the bins
        # behind the front two are trimmed as they grow
        (mu_s(FIG1, 200).support, mu_s(FIG1, 200).weights, 10**6),
    ],
    ids=["long-burn-in", "front-every-move", "multi-bin-window"],
)
def test_simulate_ibm_memory_bounded_at_the_edges(support, weights, steps):
    dist = MoveDistribution(support, weights)
    simulate_ibm(dist, 1000, seed=0)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        res = simulate_ibm(dist, steps, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    if support == (1,):
        assert res.front_displacement == steps
