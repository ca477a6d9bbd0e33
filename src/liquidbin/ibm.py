"""Stochastic infinite bin model and the scaling-limit comparison.

Each step adds one particle in the bin immediately right of the bin
holding the xi-th rightmost particle, xi drawn i.i.d. from a finite move
distribution.  Discretizing the pouring model with scale s (atom
floor(s * a_i) with weight p_i, rates normalized to sum 1) gives a chain
whose rescaled front speed s * v is compared against the deterministic
front speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._parallel import parallel_map, spawn_seeds
from .params import Number, Params
from .regions import classify

RNG_NAME = "numpy-pcg64"
_BURN_CHUNK = 4096  # the burn-in is drawn in batches of at least this many moves
_TRIM_LENGTH = 16  # least list length at which a new front bin trims the window's back
MAX_BURN_IN = 10**8  # moves: the 10 * max_move burn-in is refused beyond this


@dataclass(frozen=True)
class MoveDistribution:
    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(int(k) for k in self.support))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.support) != len(self.weights) or not self.support:
            raise ValueError("need matching nonempty support and weights")
        if any(k <= 0 for k in self.support):
            raise ValueError("moves must be positive integers")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly increasing")
        if any(not w > 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def max_move(self) -> int:
        return self.support[-1]


@dataclass(frozen=True)
class IBMState:
    """Occupancy window for the front bin leftward, covering at least the
    max_move rightmost particles."""

    occupancy: tuple[int, ...]
    front: int
    steps: int


@dataclass(frozen=True)
class SimResult:
    front_displacement: int
    speed_estimate: float
    ci95: float
    steps: int
    burn_in: int
    seed: int
    state: IBMState
    rng: str = RNG_NAME


def mu_s(params: Params, s: Number) -> MoveDistribution:
    """Discretized move distribution at scale s: atom floor(s * a_i) with
    weight p_i / sum(p); colliding atoms merge their weights."""
    if not s * params.a[0] >= 1:
        raise ValueError(f"scale {s} puts the first atom at 0 (need s >= 1/a_1)")
    norm = params.normalized_rates()
    atoms: dict[int, float] = {}
    for ai, pi in zip(norm.a, norm.p):
        x = s * ai
        if not x < 2**63:  # moves are drawn as int64; also rejects an infinite scale
            raise ValueError(f"scale {s} puts an atom at {x}, beyond 64-bit moves")
        k = math.floor(x)
        atoms[k] = atoms.get(k, 0.0) + float(pi)
    support = tuple(sorted(atoms))
    return MoveDistribution(support, tuple(atoms[k] for k in support))


def _trim(counts: list[int], window: int) -> None:
    """Drop back bins while the rest still holds `window` particles."""
    total = sum(counts)
    while total - counts[-1] >= window:
        total -= counts.pop()


def _run_chain(counts: list[int], moves, window: int) -> tuple[list[int], int]:
    """Advance the occupancy by one step per move, keeping at least
    `window` rightmost particles stored; returns the trimmed window and
    the total front displacement.

    The window only grows at the front: a move xi <= window never scans
    past the first bin, from the front, at which `window` particles are
    reached, and adds its particle in front of that bin.  So bins behind
    it are dead weight but never wrong.  The back is trimmed only when a
    new front bin makes the list longer than twice its length after the
    last trim (and than `_TRIM_LENGTH`), which costs O(1) per move
    amortised, and once more on return, which gives exactly the window
    a trim after every move would.
    """
    displacement = 0
    limit = max(_TRIM_LENGTH, 2 * len(counts))
    for xi in moves:
        cum = counts[0]
        if cum >= xi:  # the xi-th rightmost particle sits in the front bin
            counts.insert(0, 1)
            displacement += 1
            if len(counts) > limit:
                _trim(counts, window)
                limit = max(_TRIM_LENGTH, 2 * len(counts))
            continue
        idx = 1
        cum += counts[1]
        while cum < xi:
            idx += 1
            cum += counts[idx]
        counts[idx - 1] += 1
    _trim(counts, window)
    return counts, displacement


def _burn_in(dist: MoveDistribution) -> int:
    """The 10 * max_move burn-in, or ValueError beyond MAX_BURN_IN moves."""
    burn = 10 * dist.max_move
    if burn > MAX_BURN_IN:
        raise ValueError(
            f"max move {dist.max_move} needs a burn-in of {burn} moves, "
            f"beyond the limit of {MAX_BURN_IN} (max move at most {MAX_BURN_IN // 10})"
        )
    return burn


def simulate_ibm(dist: MoveDistribution, steps: int, seed: int) -> SimResult:
    """Monte Carlo front speed from the flat start (max_move particles in
    bin 0), with a burn-in of 10 * max_move steps discarded and a 95%
    batch-means interval over ~sqrt(steps) batches.

    A burn-in beyond MAX_BURN_IN moves (max_move above 10^7) raises
    ValueError instead of running for hours."""
    if steps < 1:
        raise ValueError("need at least one step")
    k = dist.max_move
    burn = _burn_in(dist)
    rng = np.random.default_rng(seed)
    thresholds = np.cumsum(dist.weights[:-1])
    support = np.asarray(dist.support, dtype=np.int64)

    def draw(count: int) -> list[int]:
        # successive draws continue one stream: chunking does not change the moves
        if len(dist.support) == 1:
            return [k] * count
        return support[np.searchsorted(thresholds, rng.random(count), side="right")].tolist()

    batches = max(1, math.isqrt(steps))
    batch_len = max(1, steps // batches)
    counts = [k]
    chunk = max(batch_len, _BURN_CHUNK)
    for start in range(0, burn, chunk):
        counts, _ = _run_chain(counts, draw(min(chunk, burn - start)), k)

    marks: list[int] = []  # displacement after each full batch
    displacement = 0
    for start in range(0, steps, batch_len):
        counts, moved = _run_chain(counts, draw(min(batch_len, steps - start)), k)
        displacement += moved
        if start + batch_len <= steps:
            marks.append(displacement)
    estimate = displacement / steps
    ci95 = float("nan")
    if len(marks) >= 2:
        per_batch = np.diff(np.asarray(marks[:batches], dtype=float), prepend=0.0) / batch_len
        b = len(per_batch)
        ci95 = 1.96 * float(np.std(per_batch, ddof=1)) / math.sqrt(b)
    state = IBMState(occupancy=tuple(counts), front=displacement, steps=steps)
    return SimResult(
        front_displacement=displacement,
        speed_estimate=estimate,
        ci95=ci95,
        steps=steps,
        burn_in=burn,
        seed=seed,
        state=state,
    )


def deterministic_speed(dist: MoveDistribution) -> Fraction:
    """Exact speed of a single-atom chain by cycle detection on the
    occupancy window."""
    if len(dist.support) != 1:
        raise ValueError("cycle detection applies to deterministic (single-atom) moves")
    k = dist.max_move
    counts = [k]
    front = 0
    seen: dict[tuple[int, ...], tuple[int, int]] = {tuple(counts): (0, 0)}
    step = 0
    while True:
        counts, moved = _run_chain(counts, [k], k)
        front += moved
        step += 1
        key = tuple(counts)
        if key in seen:
            step0, front0 = seen[key]
            return Fraction(front - front0, step - step0)
        seen[key] = (step, front)


@dataclass(frozen=True)
class HydroRow:
    s: Number
    atoms: MoveDistribution
    v_hat: float
    ci95: float
    s_times_v: float
    liquid_speed: float
    gap: float
    seed: int


@dataclass(frozen=True)
class HydroSummary:
    rows: tuple[HydroRow, ...]
    gap_first: float
    gap_last: float
    gap_decreased: bool


def _hydro_row(steps: int, liquid: float, task) -> HydroRow:
    s, dist, child_seed = task
    sim = simulate_ibm(dist, steps, child_seed)
    sv = float(s) * sim.speed_estimate
    return HydroRow(
        s=s,
        atoms=dist,
        v_hat=sim.speed_estimate,
        ci95=sim.ci95,
        s_times_v=sv,
        liquid_speed=liquid,
        gap=abs(sv - liquid),
        seed=child_seed,
    )


def hydrolimit_check(
    params: Params, s_values, steps: int, seed: int, jobs: int = 1
) -> HydroSummary:
    """Estimate s * v at each scale s against the deterministic front
    speed at normalized rates; reports gaps and their end-to-end trend,
    no verdict (the limit statement is a conjecture).

    Each scale runs on its own seed derived from the master seed, so the
    output does not depend on the worker count.
    """
    from functools import partial

    norm = params.normalized_rates()
    try:
        liquid = float(classify(norm).speed)
    except OverflowError:  # an exact speed beyond the float range
        raise ValueError("the liquid speed at normalized rates does not fit the float range "
                         "(|x| < 1.8e308), and the comparison with the chain runs needs it "
                         "as a float") from None
    s_values = list(s_values)
    dists = [mu_s(params, s) for s in s_values]
    for dist in dists:  # refuse an overlong burn-in before any chain runs
        _burn_in(dist)
    tasks = list(zip(s_values, dists, spawn_seeds(seed, len(s_values))))
    rows = parallel_map(partial(_hydro_row, steps, liquid), tasks, jobs)
    return HydroSummary(
        rows=tuple(rows),
        gap_first=rows[0].gap,
        gap_last=rows[-1].gap,
        gap_decreased=rows[-1].gap < rows[0].gap,
    )
