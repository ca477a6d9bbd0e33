"""Stationary regime of the car model: the closed-form profile, with the
breakpoint iteration kept as an independent cross-check.

A car trajectory is encoded by its breakpoint times s = (t(a_1), ...,
t(a_N)): the follower of a car with breakpoints s drives the piecewise
linear path y(t) = sum_j p_j (t - s_j + s_1)_+.  The fixed point of the
map sending s to the follower's breakpoint times is the traveling-wave
profile; the first breakpoint is the period, its inverse the front speed.
The profile is the closed form of the region holding the parameters
(regions.classify), which stationary_profile serves, with a certified
bound, to every caller here.  fixed_point_solve iterates the map as a
cross-check.  The map need not contract the sup norm by
lambda = 1 - q_1/q_N, so the error estimate it reports from lambda is not
a bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import DCGraph
from .dynamics import CarConfig, _CarSim, step_cars
from .params import Number, Params
from .regions import classify, float_solution


class ConvergenceError(RuntimeError):
    """Iteration cap exceeded in floating-point mode."""


# a float threshold below one ulp of the breakpoint times is never met,
# and the cap from lambda alone can then allow 10^8 iterations and more;
# 10^5 take about a second at N = 4
MAX_ITERATIONS = 10**5


@dataclass(frozen=True)
class StationaryProfile:
    """Sojourn times z_i of a stationary car between signs i-1 and i."""

    z: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(self.z))
        if any(not zi > 0 for zi in self.z):
            raise ValueError("sojourn times must be positive")

    @property
    def period(self) -> Number:
        return self.z[0]

    @property
    def speed(self) -> Number:
        return 1 / self.z[0]

    @property
    def breakpoint_times(self) -> tuple[Number, ...]:
        out, acc = [], 0
        for zi in self.z:
            acc = acc + zi
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class SolveReport:
    """Result of fixed_point_solve.  certified_error is the a-posteriori
    estimate diff * lambda / (1 - lambda) of the last step, not a bound on
    the error of the profile; stationary_profile gives a certified one."""

    profile: StationaryProfile
    iterations: int
    certified_error: Number
    contraction_factor: Number


class Trajectory:
    """Increasing piecewise-linear path with slope q_j between breakpoints
    s_j - s_1 and s_{j+1} - s_1 (slope q_N beyond the last one)."""

    def __init__(self, params: Params, s: tuple[Number, ...]):
        if len(s) != params.n:
            raise ValueError("need one breakpoint time per sign")
        self.params = params
        self.q, self.n = params.q, params.n
        self.b = tuple(sj - s[0] for sj in s)
        if any(self.b[i] > self.b[i + 1] for i in range(len(s) - 1)) or self.b[0] != 0:
            raise ValueError("breakpoint times must be nondecreasing")
        q = self.q
        vals = [0 * s[0]]
        for j in range(1, self.n):
            vals.append(vals[-1] + q[j] * (self.b[j] - self.b[j - 1]))
        self.v = tuple(vals)

    def value(self, t: Number) -> Number:
        if t < 0:
            raise ValueError("trajectories are defined for t >= 0")
        j = self.n
        while j > 1 and self.b[j - 1] > t:
            j -= 1
        return self.v[j - 1] + self.q[j] * (t - self.b[j - 1])

    def time_at(self, x: Number) -> Number:
        if x < 0:
            raise ValueError("positions are nonnegative")
        j = self.n
        while j > 1 and self.v[j - 1] > x:
            j -= 1
        return self.b[j - 1] + (x - self.v[j - 1]) / self.q[j]

    def sup_distance(self, other: "Trajectory") -> Number:
        """Exact sup-norm distance: both paths are piecewise linear with a
        common final slope, so the maximum sits at a breakpoint."""
        pts = sorted(set(self.b) | set(other.b))
        return max(abs(self.value(t) - other.value(t)) for t in pts)


def bounding_profiles(params: Params) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Breakpoint times of the slow and fast bounding trajectories.

    Slow: speed q_1 up to a_1 and q_i between a_i and a_{i+1}.
    Fast: top speed q_N throughout.
    """
    d, q = params.d, params.q
    lower = []
    acc = d[0] / q[1]
    lower.append(acc)
    for i in range(2, params.n + 1):
        acc = acc + d[i - 1] / q[i - 1]
        lower.append(acc)
    upper = tuple(ai / q[params.n] for ai in params.a)
    return tuple(lower), upper


def iterate_breakpoints(params: Params, s: tuple[Number, ...]) -> tuple[Number, ...]:
    """One step of the trajectory recursion: the follower's breakpoint times."""
    traj = Trajectory(params, s)
    return tuple(traj.time_at(ai) for ai in params.a)


def contraction_map(params: Params, g: DCGraph, s: tuple[Number, ...]) -> tuple[Number, ...]:
    """The per-graph linear map T(G): component i is
    (a_i + sum_{j <= b_G(i)} p_j (s_j - s_1)) / q_{b_G(i)}."""
    q, p = params.q, params.p
    out = []
    for i in range(1, params.n + 1):
        b = g.b[i]
        out.append((params.a[i - 1] + sum(p[j - 1] * (s[j - 1] - s[0]) for j in range(1, b + 1))) / q[b])
    return tuple(out)


def fixed_point_solve(
    params: Params, tol: Number, max_iterations: int | None = None
) -> SolveReport:
    """Iterate from the slow bounding profile until the a-posteriori
    estimate ||s' - s|| lambda / (1 - lambda), with lambda = 1 - q_1/q_N,
    is at most tol.

    The estimate, reported as certified_error, is not a bound: the
    breakpoint map need not contract the sup norm by lambda, so it can
    fall below the true error of the returned breakpoint times, even to
    0.0.  stationary_profile gives a certified bound.  ConvergenceError
    is raised after 10 ceil(log tol / log lambda) + 100 iterations,
    MAX_ITERATIONS or max_iterations, whichever is fewest, and when the
    differences stop shrinking for 64 steps in a row.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    q = params.q
    lam = 1 - q[1] / q[params.n]
    s, _ = bounding_profiles(params)
    if lam == 0:
        s = iterate_breakpoints(params, s)
        return SolveReport(_profile_from(s), 1, 0 * s[0], lam)
    threshold = tol * (1 - lam) / lam
    cap = min(10 * math.ceil(math.log(float(tol)) / math.log(float(lam))) + 100, MAX_ITERATIONS)
    if max_iterations is not None:
        cap = min(cap, max_iterations)
    iterations = 0
    stalled = 0
    prev_diff = None
    while True:
        s_new = iterate_breakpoints(params, s)
        iterations += 1
        diff = max(abs(s_new[i] - s[i]) for i in range(params.n))
        s = s_new
        if diff <= threshold or diff == 0:
            return SolveReport(_profile_from(s), iterations, diff * lam / (1 - lam), lam)
        stalled = stalled + 1 if prev_diff is not None and diff >= prev_diff else 0
        prev_diff = diff
        if iterations >= cap or stalled >= 64:
            raise ConvergenceError(
                f"no certificate after {iterations} of at most {cap} iterations"
                f" (lambda = {float(lam):.6g})"
            )


def stationary_profile(params: Params) -> tuple[StationaryProfile, Number]:
    """The stationary profile from the closed form of the region holding
    the parameters, with a certified bound on its breakpoint times.

    The point is classified exactly, float input at its binary value, so
    no iteration can stall.  Exact input gives the exact profile and bound
    0.  Float input gets each z_i rounded once; the bound is the exact sup
    distance between the partial sums of the rounded z and the true
    breakpoint times, rounded up.  A z that leaves the float range raises
    ValueError.
    """
    exact = StationaryProfile(classify(params.as_exact(), tol=0).z)
    if params.is_exact:
        return exact, Fraction(0)
    profile = StationaryProfile(float_solution(exact.z))
    rounded = StationaryProfile(tuple(Fraction(zi) for zi in profile.z)).breakpoint_times
    error = max(abs(s - t) for s, t in zip(rounded, exact.breakpoint_times))
    bound = float(error)
    return profile, bound if bound >= error else math.nextafter(bound, math.inf)


def _profile_from(s: tuple[Number, ...]) -> StationaryProfile:
    z = [s[0]]
    for i in range(1, len(s)):
        z.append(s[i] - s[i - 1])
    return StationaryProfile(tuple(z))


def stationarity_residual(profile: StationaryProfile, params: Params) -> Number:
    """Sup norm of the fixed-point relations
    a_i = sum_j p_j (S_i - S_j + S_1)_+ at the breakpoint times S."""
    s = profile.breakpoint_times
    worst = 0 * s[0]
    for i in range(params.n):
        acc = 0 * s[0]
        for j in range(params.n):
            gap = s[i] - s[j] + s[0]
            if gap > 0:
                acc = acc + params.p[j] * gap
        worst = max(worst, abs(params.a[i] - acc))
    return worst


def canonical_configuration(profile: StationaryProfile, params: Params) -> CarConfig:
    """Stationary snapshot: cars at the profile positions one period apart,
    windowed below a_N, with the implicit queue at 0."""
    traj = Trajectory(params, profile.breakpoint_times)
    positions = []
    k = 1
    while True:
        pos = traj.value(k * profile.period)
        if not pos < params.a[-1]:
            break
        positions.append(pos)
        k += 1
    return CarConfig(tuple(reversed(positions)))


def verify_stationarity(
    y: CarConfig, params: Params, tol: Number, period: Number | None = None
) -> bool:
    """Advance by one period (by default the closed-form one) and test
    the one-index shift: the windowed position multiset must be unchanged
    up to tol (0 in rational mode)."""
    if period is None:
        period = stationary_profile(params)[0].period
    after, _ = step_cars(y, params, period)
    if len(after.positions) != len(y.positions):
        return False
    return all(abs(x - y_) <= tol for x, y_ in zip(after.positions, y.positions))


def convergence_trace(
    y0: CarConfig, params: Params, k_max: int, profile: StationaryProfile | None = None
) -> list[Number]:
    """Sup distances between the shifted trajectories of the successive
    cars starting from 0 and the stationary profile (by default the
    closed-form one).

    Distances are evaluated on the union of breakpoints, which is exact
    for piecewise-linear paths sharing the final slope q_N.
    """
    if profile is None:
        profile = stationary_profile(params)[0]
    stationary_traj = Trajectory(params, profile.breakpoint_times)
    m = len(y0.positions)
    q1, a1, aN = params.q[1], params.a[0], params.a[-1]
    sim = _CarSim(y0, params)
    sim.run((k_max + 2) * a1 / q1 + 2 * aN / q1)
    crossed: dict[tuple[int, int], Number] = {}
    for (t, sign, car) in sim.crossings:
        crossed.setdefault((car, sign), t)

    distances = []
    for j in range(k_max + 1):
        car = m + j
        pred = car - 1
        start = crossed.get((pred, 1), 0 * a1)
        rel = [0 * a1]
        for sign in range(2, params.n + 1):
            t_cross = crossed.get((pred, sign))
            if t_cross is None:
                # predecessor began beyond a_sign, so the speed is active at once
                rel.append(0 * a1)
            else:
                rel.append(max(0 * a1, t_cross - start))
        traj = Trajectory(params, tuple(rel))
        distances.append(traj.sup_distance(stationary_traj))
    return distances
