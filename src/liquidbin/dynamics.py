"""Event-driven dynamics: liquid pouring into bins, and the equivalent
model of cars on a half-line with speed-limit signs.

Bin side: cursor c_i sits at the highest bin index whose right tail holds
at least a_i of liquid; stream i pours at rate p_i into bin c_i + 1.

Car side: a sign at position a_i carries speed q_i = p_1 + ... + p_i; a
car moves at the speed of the highest sign at or below its predecessor's
position.  The map sigma sending a bin configuration to the vector of its
right tail sums intertwines the two dynamics exactly.

Both simulators are generic over the scalar type: with Fraction inputs
every event time is exact; with floats crossings are snapped to the sign
positions and simultaneity is resolved with a relative 1e-12 tolerance.

Each simulator has its own event loop, and both batch tied events by
one rule (_exact_mode).  The bin simulator runs a loop generated and
compiled once per N (_bin_loop_source), with the cursors, rates and
pending times in locals; the car simulator, whose number of stored cars
varies, runs one loop with every step written inline.  Both compute the
terms of the generic loop they replaced in its order, so their results
have its bits; tests/conftest.py keeps that loop as their reference.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import itemgetter, le
from typing import Callable

from ._codegen import compile_functions
from .params import Number, Params, ParamsError, format_number, is_exact_scalar, parse_number

_REL_TIE = 1e-12
_TIE = 1 + _REL_TIE
_SIGN = itemgetter(1)

CURSOR_JUMP = "cursor-jump"
SIGN_CROSSING = "sign-crossing"


@dataclass(frozen=True)
class Event:
    time: Number
    kind: str
    index: int
    location: Number


EventLog = tuple[Event, ...]


@dataclass(frozen=True)
class BinConfig:
    """Bins listed front-first, extending leftward; front is the absolute
    index of the rightmost nonempty bin.  The stored window must cumulate
    to at least a_N for the cursors to be determined."""

    front: int
    volumes: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "volumes", tuple(self.volumes))
        if not self.volumes:
            raise ValueError("need at least one stored bin")
        if any(not v > 0 for v in self.volumes):
            raise ValueError("bin volumes must be positive")

    @property
    def total(self) -> Number:
        return sum(self.volumes)

    def volume_at(self, k: int) -> Number:
        i = self.front - k
        return self.volumes[i] if 0 <= i < len(self.volumes) else 0

    def to_json_dict(self) -> dict:
        return {"front": self.front, "volumes": [format_number(v) for v in self.volumes]}

    @classmethod
    def from_json_dict(cls, obj, exact: bool) -> "BinConfig":
        """Read {"front": int, "volumes": [...]}, each volume parsed by
        parse_number (exactly when exact); ParamsError if obj has another
        shape, ValueError if a volume is not positive."""
        if not isinstance(obj, dict):
            raise ParamsError('params file needs a "bins" object {"front": int, "volumes": [...]}')
        front, volumes = obj.get("front"), obj.get("volumes")
        if not (isinstance(front, int) and not isinstance(front, bool) and isinstance(volumes, list)):
            raise ParamsError(f'bad "bins" object: {obj!r}')
        return cls(front, tuple(parse_number(str(v), exact) for v in volumes))


@dataclass(frozen=True)
class CarConfig:
    """Cars strictly inside (0, a_N), positions strictly decreasing.

    Infinitely many cars wait at 0 behind the last stored one; the car
    ahead of the first stored one is at or beyond a_N, so it imposes the
    top speed q_N on the first stored car.
    """

    positions: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        prev = None
        for x in self.positions:
            if not x > 0:
                raise ValueError("stored car positions must be positive")
            if prev is not None and not x < prev:
                raise ValueError("positions must be strictly decreasing")
            prev = x


def cursors(x: BinConfig, params: Params) -> tuple[int, ...]:
    """c_i = max{m : volume in bins m and rightward >= a_i}, for each i."""
    if not x.total >= params.a[-1]:
        raise ValueError("stored window holds less than a_N; cursors undefined")
    out = []
    for ai in params.a:
        tail = 0
        k = x.front
        while True:
            tail = tail + x.volume_at(k)
            if tail >= ai:
                out.append(k)
                break
            k -= 1
    return tuple(out)


def windowed_volumes(x: BinConfig, params: Params) -> tuple[Number, ...]:
    """The first a_N units of liquid, front-first, the last bin truncated
    at the a_N boundary.  Two configurations with equal windows (up to a
    front shift) are equal for the dynamics."""
    out = []
    acc = 0
    for v in x.volumes:
        if acc + v < params.a[-1]:
            out.append(v)
            acc = acc + v
        else:
            out.append(params.a[-1] - acc)
            return tuple(out)
    raise ValueError("stored window holds less than a_N")


def sigma(x: BinConfig, params: Params) -> CarConfig:
    """Coupling map: car positions are the right tail sums of the bins,
    windowed to (0, a_N)."""
    ascending = []
    tail = 0
    for v in x.volumes:
        tail = tail + v
        if tail >= params.a[-1]:
            break
        ascending.append(tail)
    return CarConfig(tuple(reversed(ascending)))


def _check_duration(t: Number) -> None:
    if not 0 <= t < math.inf:  # nan fails both comparisons
        raise ValueError("duration must be finite and nonnegative")


def _exact_mode(params: Params, values: tuple[Number, ...]) -> bool:
    """Whether a run ties only equal event times: when the parameters and
    the start state are all exact scalars.  Otherwise events within a
    relative _REL_TIE of the earliest join its batch, at or below
    dt * _TIE.  Both simulators take their batches by this one rule."""
    return params.is_exact and all(is_exact_scalar(v) for v in values)


class _CarSim:
    """Mutable car-model state; positions descending, the trailing entry
    is the head of the queue at 0.  Cars leave pos only from the front
    and join it only at the back, numbered from 0 in that order, so the
    car in slot k has id _next_id - len(pos) + k."""

    def __init__(self, y: CarConfig, params: Params):
        if y.positions and not y.positions[0] < params.a[-1]:
            raise ValueError("stored car positions must lie below a_N")
        self.a, self.q, self.n = params.a, params.q, params.n
        self.exact = _exact_mode(params, y.positions)
        self.t: Number = 0 * params.a[0]
        self.pos: list[Number] = list(y.positions)
        if not self.pos or self.pos[-1] > 0:
            self.pos.append(0 * params.a[0])
        self._next_id = len(self.pos)
        self.crossings: list[tuple[Number, int, int]] = []  # (time, sign, car id)

    def run(self, duration: Number, one_batch: bool = False) -> None:
        """Advance by duration, applying each batch of tied crossings at
        its instant; crossings landing exactly at the final instant are
        applied.  With one_batch the run stops after its first batch.

        Each step is one pass over the cars: a car's speed is q at the
        sign index of the car ahead (q_N for the first), and a car below
        a_N with a positive speed is heading to its next sign.  Cars move
        by the earliest time, the queue at 0 releases its next car once
        its head has left, crossing cars are snapped to their signs in
        sign order, and cars past a_N (a prefix) leave."""
        a, q, n, exact = self.a, self.q, self.n, self.exact
        a_n, zero = a[-1], 0 * a[0]
        pos, t, next_id = self.pos, self.t, self._next_id
        record = self.crossings.append
        remaining = duration
        while remaining > 0:
            speeds, times, events = [], [], []
            ahead = n  # sign index of the car ahead
            for k, x in enumerate(pos):
                v = q[ahead]
                speeds.append(v)
                ahead = bisect_right(a, x)
                if ahead < n and v > 0:
                    times.append((a[ahead] - x) / v)
                    events.append((k, ahead + 1))
            # the first car, below a_N at speed q_N, is always heading to a sign
            dt = min(times)
            last = dt > remaining
            if last:
                dt = remaining
            pos = [x + v * dt for x, v in zip(pos, speeds)]
            if pos[-1] > 0:
                pos.append(zero)
                next_id += 1
            t = t + dt
            if last:
                break
            remaining = remaining - dt
            batch = list(compress(events, map(le, times, repeat(dt if exact else dt * _TIE))))
            if len(batch) > 1:
                batch.sort(key=_SIGN)
            first_id = next_id - len(pos)  # the id of slot 0
            for (k, sign) in batch:
                pos[k] = a[sign - 1]  # snap: exact in rational mode, drift-free in float
                record((t, sign, first_id + k))
            if pos[0] >= a_n:
                gone = 1
                while gone < len(pos) and pos[gone] >= a_n:
                    gone += 1
                del pos[:gone]
            if one_batch:
                break
        self.pos, self.t, self._next_id = pos, t, next_id

    def to_config(self) -> CarConfig:
        return CarConfig(tuple(x for x in self.pos if x > 0))

    def event_log(self) -> EventLog:
        return tuple(
            Event(t, SIGN_CROSSING, sign, self.a[sign - 1]) for (t, sign, _) in self.crossings
        )


def next_event_time(y: CarConfig, params: Params):
    """First time a car reaches a sign, with the arg-min set of
    (car slot, sign index) pairs; slot len(positions) is the car at 0."""
    sim = _CarSim(y, params)
    sim.run(math.inf, one_batch=True)
    if not sim.crossings:
        raise ValueError("no pending sign crossing (empty system)")
    # no car has left yet, and a car joins only at the back, so the id
    # of a crossing car, _next_id - len(pos) + slot, is its slot.
    # The batch is applied in sign order but frozen in slot order, the
    # order of the scan, so the set iterates the same whatever the signs.
    return sim.t, frozenset(sorted((car, sign) for (_, sign, car) in sim.crossings))


def step_cars(y: CarConfig, params: Params, t: Number) -> tuple[CarConfig, EventLog]:
    """Advance the car model by duration t, processing sign crossings in
    order; crossings landing exactly at the final instant are included."""
    _check_duration(t)
    sim = _CarSim(y, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()


class _BinSim:
    """Mutable bin-model state with explicit cursor bookkeeping.  Only the
    bins from cursor N to the front are kept, in a list from cursor N
    rightward: the tails the dynamics reads start right of a cursor, and
    cursors never move left.  run is the compiled loop of its N."""

    def __init__(self, x: BinConfig, params: Params):
        self.a, self.p, self.q, self.n = params.a, params.p, params.q, params.n
        self.exact = _exact_mode(params, x.volumes)
        self.t: Number = 0 * params.a[0]
        self.front = x.front
        self.c: list[int] = list(cursors(x, params))
        # vol[k] is bin c_N + k, up to the front
        self.vol: list[Number] = list(reversed(x.volumes[: x.front - self.c[-1] + 1]))
        self.log: list[Event] = []

    def run(self, duration: Number) -> None:
        """Advance by duration; events landing exactly at the final
        instant are applied."""
        _bin_loop(self.n)(self, duration)

    def to_config(self) -> BinConfig:
        return BinConfig(self.front, tuple(v for v in reversed(self.vol) if v > 0))

    def event_log(self) -> EventLog:
        return tuple(self.log)


def _bin_loop_source(n: int) -> str:
    """Python source of run(sim, duration), the bin event loop at N = n,
    with cursor i, its rate and its pending time in the locals c{i},
    r{i} and t{i} (0-based).  Each step:

    - pending times (a_i - tail right of c_i) / r_i, every tail read off
      one top-down sweep of the bins (tails[j] holds the top j);
    - the earliest time dt, or the rest of the duration if that is
      sooner (then the step only moves, and the run ends);
    - the move: stream 1 opens a new front bin when its cursor is at the
      front, and stream i pours p_i * dt into bin c_i + 1;
    - the batch: every cursor whose time ties with dt (_exact_mode) jumps
      one bin, in index order, and a jump of cursor N drops its old bin;
    - the rates: cursors are nonincreasing, so the streams j <= m_i with
      c_j >= c_i, which pour at or right of bin c_i + 1, end with the tie
      block of cursor i, and r_i is q at the end of that block.

    These are the operations of the generic loop this replaced, in its
    order, so every float and Fraction result has the same bits."""
    def seq(prefix: str, stop: int = n) -> str:
        return ", ".join(f"{prefix}{i}" for i in range(stop))

    rates = [f"r{i} = q{i + 1} if c{i} > c{i + 1} else r{i + 1}" for i in range(n - 2, -1, -1)]
    lines = ["def run(sim, duration):",
             f"    {seq('a')}, = sim.a",
             f"    {seq('p')}, = sim.p",
             f"    {seq('q', n + 1)}, = sim.q",
             f"    {seq('c')}, = sim.c",
             "    vol, front, t, exact, record = sim.vol, sim.front, sim.t, sim.exact, sim.log.append",
             f"    r{n - 1} = q{n}",
             *(f"    {line}" for line in rates),
             "    remaining = duration",
             "    while remaining > 0:",
             "        tails = [0]",
             "        tails += accumulate(vol[:0:-1])",
             *(f"        t{i} = (a{i} - tails[front - c{i}]) / r{i}" for i in range(n)),
             f"        dt = min({seq('t')})" if n > 1 else "        dt = t0",
             "        last = dt > remaining",
             "        if last:",
             "            dt = remaining",
             "        if c0 >= front:",
             "            vol.append(0 * dt)",
             "            front = c0 + 1",
             *(f"        vol[c{i} + 1 - c{n - 1}] += p{i} * dt" for i in range(n - 1)),
             f"        vol[1] += p{n - 1} * dt",  # bin c_N + 1
             "        t = t + dt",
             "        if last:",
             "            break",
             "        remaining = remaining - dt",
             "        cutoff = dt if exact else dt * TIE"]
    for i in range(n):
        lines += [f"        if t{i} <= cutoff:",
                  f"            c{i} += 1",
                  f"            record(Event(t, CURSOR_JUMP, {i + 1}, c{i}))"]
    lines += ["            del vol[0]",  # the old bin of cursor N
              *(f"        {line}" for line in rates),
              f"    sim.c[:] = {seq('c')},",
              "    sim.front, sim.t = front, t"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _bin_loop(n: int) -> Callable:
    """The bin event loop at N = n: _bin_loop_source compiled once."""
    run, = compile_functions(_bin_loop_source(n), f"<bin event loop, N = {n}>", "run",
                             accumulate=accumulate, Event=Event, CURSOR_JUMP=CURSOR_JUMP, TIE=_TIE)
    return run


def evolve_bins(x: BinConfig, params: Params, t: Number) -> tuple[BinConfig, EventLog]:
    """Advance the liquid bin model by duration t via cursor bookkeeping.

    Coupled to step_cars through sigma: the right tail sums of the result
    equal the stepped car positions, exactly so in rational mode.
    """
    _check_duration(t)
    sim = _BinSim(x, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()
