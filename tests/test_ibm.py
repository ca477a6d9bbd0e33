import math
from fractions import Fraction as F

import pytest

from liquidbin.ibm import (
    MoveDistribution,
    deterministic_speed,
    hydrolimit_check,
    mu_s,
    simulate_ibm,
)
from liquidbin.params import Params
from liquidbin.regions import classify

FIG1 = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))


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
    assert a.state == b.state
    c = simulate_ibm(dist, 20000, seed=100)
    assert c.front_displacement != a.front_displacement or c.state != a.state


@pytest.mark.parametrize(
    "steps, displacement, occupancy, ci95",
    [(1, 0, (1, 2, 4), None), (10**4 + 37, 3572, (1, 1, 2), 0.0042532405993500515)],
)
def test_seeded_chain_pinned(steps, displacement, occupancy, ci95):
    # moves are drawn batch by batch; the seeded stream must not change
    res = simulate_ibm(MoveDistribution((1, 3, 4), (0.25, 0.25, 0.5)), steps, seed=3)
    assert res.front_displacement == displacement
    assert res.speed_estimate == displacement / steps
    assert res.state.occupancy == occupancy
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
