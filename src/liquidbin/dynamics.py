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
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .params import Number, Params, ParamsError, format_number, is_exact_scalar, parse_number

_REL_TIE = 1e-12
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
    ahead of the first stored one is at or beyond a_N (it then imposes the
    top speed q_N on the first stored car), recorded by the flag.
    """

    positions: tuple[Number, ...]
    lead_at_or_beyond: bool = True

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


class _EventSim:
    """Event core shared by the bin and car simulators: advance to the
    earliest pending event, apply it together with every event tied with
    it, and repeat until the duration runs out.  Each simulator lists its
    pending events, moves its state and applies a batch."""

    def __init__(self, params: Params, values: tuple[Number, ...]):
        self.a = params.a
        self.q = params.q
        self.n = params.n
        self.exact = params.is_exact and all(is_exact_scalar(v) for v in values)
        self.t: Number = 0 * params.a[0]

    def next_event(self) -> tuple[Number, list] | None:
        """Time to the earliest pending event and the batch of events tied
        with it: equal in exact mode, within a relative 1e-12 in float."""
        times, events = self._pending()
        if not times:
            return None
        dt = min(times)
        cutoff = dt if self.exact else dt * (1 + _REL_TIE)
        batch = []
        for d, e in zip(times, events):
            if d <= cutoff:
                batch.append(e)
        return dt, batch

    def run(self, duration: Number) -> None:
        """Advance by duration; events landing exactly at the final
        instant are applied."""
        remaining = duration
        while remaining > 0:
            nxt = self.next_event()
            if nxt is None or nxt[0] > remaining:
                self._move(remaining)
                self.t = self.t + remaining
                return
            dt, batch = nxt
            self._move(dt)
            self.t = self.t + dt
            remaining = remaining - dt
            self._apply(batch)


class _CarSim(_EventSim):
    """Mutable car-model state; positions descending, the trailing entry
    is the head of the queue at 0."""

    def __init__(self, y: CarConfig, params: Params):
        super().__init__(params, y.positions)
        if y.positions and not y.positions[0] < params.a[-1]:
            raise ValueError("stored car positions must lie below a_N")
        self.pos: list[Number] = list(y.positions)
        self.ids: list[int] = list(range(len(self.pos)))
        self._next_id = len(self.pos)
        self._respawn_zero()
        self.crossings: list[tuple[Number, int, int]] = []  # (time, sign, car id)
        self.speeds: list[Number] = []  # of the stored cars, set by _pending

    def _pending(self) -> tuple[list[Number], list[tuple[int, int]]]:
        """Times to the next sign and (car slot, sign) for every car that is
        heading to a sign.

        One pass finds each car's sign index and its speed, q at the sign
        index of the car ahead (q_N for the first).  The speeds are kept
        for _move: they hold until the next event."""
        a, q, n = self.a, self.q, self.n
        times, events = [], []
        self.speeds = speeds = []
        ahead = n  # sign index of the car ahead
        for k, x in enumerate(self.pos):
            v = q[ahead]
            speeds.append(v)
            s = bisect_right(a, x)
            if s < n and v > 0:
                times.append((a[s] - x) / v)
                events.append((k, s + 1))
            ahead = s
        return times, events

    def _move(self, dt: Number) -> None:
        self.pos = [x + v * dt for x, v in zip(self.pos, self.speeds)]
        self._respawn_zero()

    def _apply(self, batch: list[tuple[int, int]]) -> None:
        pos, a = self.pos, self.a
        for (k, sign) in sorted(batch, key=_SIGN) if len(batch) > 1 else batch:
            pos[k] = a[sign - 1]  # snap: exact in rational mode, drift-free in float
            self.crossings.append((self.t, sign, self.ids[k]))
        if pos[0] >= a[-1]:  # cars that crossed a_N leave, a prefix of pos
            gone = 1
            while gone < len(pos) and pos[gone] >= a[-1]:
                gone += 1
            del pos[:gone], self.ids[:gone]

    def _respawn_zero(self) -> None:
        # the queue at 0 releases its next car once its head has left
        if not self.pos or self.pos[-1] > 0:
            self.pos.append(0 * self.a[0])
            self.ids.append(self._next_id)
            self._next_id += 1

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
    nxt = sim.next_event()
    if nxt is None:
        raise ValueError("no pending sign crossing (empty system)")
    return nxt[0], frozenset(nxt[1])


def step_cars(y: CarConfig, params: Params, t: Number) -> tuple[CarConfig, EventLog]:
    """Advance the car model by duration t, processing sign crossings in
    order; crossings landing exactly at the final instant are included."""
    if t < 0:
        raise ValueError("duration must be nonnegative")
    sim = _CarSim(y, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()


class _BinSim(_EventSim):
    """Mutable bin-model state with explicit cursor bookkeeping.  Only the
    bins from cursor N to the front are kept, in a list from cursor N
    rightward: the tails the dynamics reads start right of a cursor, and
    cursors never move left.  The rates depend only on the cursors, so
    they are recomputed only after cursors jump."""

    def __init__(self, x: BinConfig, params: Params):
        super().__init__(params, x.volumes)
        self.p = params.p
        self.front = x.front
        self.c: list[int] = list(cursors(x, params))
        # vol[k] is bin c_N + k, up to the front
        self.vol: list[Number] = list(reversed(x.volumes[: x.front - self.c[-1] + 1]))
        self.jumps: list[tuple[Number, int, int]] = []  # (time, cursor, new bin)
        self._set_rates()

    def _set_rates(self) -> None:
        # cursors are nonincreasing, so the streams j <= m_i with
        # c_j >= c_i, which pour at or right of bin c_i + 1, end with the
        # tie block of cursor i: its rate is q at the end of that block
        c, q, n = self.c, self.q, self.n
        self.rates = rates = [q[n]] * n
        for i in range(n - 2, -1, -1):
            rates[i] = q[i + 1] if c[i] > c[i + 1] else rates[i + 1]

    def _pending(self) -> tuple[list[Number], range]:
        # one top-down sweep: tails[j] is the liquid in the top j bins, so
        # the tail right of cursor i is tails[front - c_i]
        tails = [0]
        tails += accumulate(self.vol[:0:-1])
        front = self.front
        times = [(ai - tails[front - ci]) / r for ai, ci, r in zip(self.a, self.c, self.rates)]
        return times, range(self.n)

    def _move(self, dt: Number) -> None:
        vol, base = self.vol, self.c[-1]
        if self.c[0] >= self.front:  # stream 1 starts a new front bin
            vol.append(0 * dt)
            self.front = self.c[0] + 1
        for ci, pj in zip(self.c, self.p):
            vol[ci + 1 - base] += pj * dt

    def _apply(self, batch: list[int]) -> None:
        for i in batch:
            self.c[i] += 1
            self.jumps.append((self.t, i + 1, self.c[i]))
        if self.n - 1 in batch:
            del self.vol[0]
        self._set_rates()

    def to_config(self) -> BinConfig:
        return BinConfig(self.front, tuple(v for v in reversed(self.vol) if v > 0))

    def event_log(self) -> EventLog:
        return tuple(Event(t, CURSOR_JUMP, i, b) for (t, i, b) in self.jumps)


def evolve_bins(x: BinConfig, params: Params, t: Number) -> tuple[BinConfig, EventLog]:
    """Advance the liquid bin model by duration t via cursor bookkeeping.

    Coupled to step_cars through sigma: the right tail sums of the result
    equal the stepped car positions, exactly so in rational mode.
    """
    if t < 0:
        raise ValueError("duration must be nonnegative")
    sim = _BinSim(x, params)
    sim.run(t)
    return sim.to_config(), sim.event_log()
