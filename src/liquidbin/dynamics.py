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

from .params import Number, Params, is_exact_scalar

_REL_TIE = 1e-12

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
        from .params import format_number
        return {"front": self.front, "volumes": [format_number(v) for v in self.volumes]}


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
        pending = self._pending()
        if not pending:
            return None
        dt = min(d for d, _ in pending)
        cutoff = dt if self.exact else dt * (1 + _REL_TIE)
        return dt, [e for d, e in pending if d <= cutoff]

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

    def _speeds(self) -> list[Number]:
        v = [self.q[self.n]]
        for k in range(1, len(self.pos)):
            v.append(self.q[bisect_right(self.a, self.pos[k - 1])])
        return v

    def _pending(self) -> list[tuple[Number, tuple[int, int]]]:
        """(dt, (car slot, sign)) for every car that is heading to a sign."""
        out = []
        for k, (x, v) in enumerate(zip(self.pos, self._speeds())):
            if not v > 0:
                continue
            sign = bisect_right(self.a, x) + 1
            if sign <= self.n:
                out.append(((self.a[sign - 1] - x) / v, (k, sign)))
        return out

    def _move(self, dt: Number) -> None:
        for k, v in enumerate(self._speeds()):
            self.pos[k] = self.pos[k] + v * dt
        self._respawn_zero()

    def _apply(self, batch: list[tuple[int, int]]) -> None:
        for (k, sign) in sorted(batch, key=lambda ks: ks[1]):
            self.pos[k] = self.a[sign - 1]  # snap: exact in rational mode, drift-free in float
            self.crossings.append((self.t, sign, self.ids[k]))
        while self.pos and self.pos[0] >= self.a[-1]:
            self.pos.pop(0)
            self.ids.pop(0)

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
    bins at or right of cursor N are kept: the tails the dynamics reads
    start right of a cursor, and cursors never move left."""

    def __init__(self, x: BinConfig, params: Params):
        super().__init__(params, x.volumes)
        self.p = params.p
        self.front = x.front
        self.c: list[int] = list(cursors(x, params))
        self.vol: dict[int, Number] = {
            x.front - i: v for i, v in enumerate(x.volumes) if x.front - i >= self.c[-1]
        }
        self.jumps: list[tuple[Number, int, int]] = []  # (time, cursor, new bin)

    def _tail(self, m: int) -> Number:
        return sum(v for k, v in self.vol.items() if k >= m)

    def _rates(self) -> list[Number]:
        # cursors are nonincreasing; streams j <= m_i with c_j >= c_i all
        # pour at or right of bin c_i + 1
        out = []
        for i in range(self.n):
            m = max(j for j in range(self.n) if self.c[j] >= self.c[i])
            out.append(self.q[m + 1])
        return out

    def _pending(self) -> list[tuple[Number, int]]:
        rates = self._rates()
        return [((self.a[i] - self._tail(self.c[i] + 1)) / rates[i], i) for i in range(self.n)]

    def _move(self, dt: Number) -> None:
        for j in range(self.n):
            target = self.c[j] + 1
            self.vol[target] = self.vol.get(target, 0 * dt) + self.p[j] * dt
        self.front = max(self.front, self.c[0] + 1)

    def _apply(self, batch: list[int]) -> None:
        for i in batch:
            self.c[i] += 1
            self.jumps.append((self.t, i + 1, self.c[i]))
        if self.n - 1 in batch:
            del self.vol[self.c[-1] - 1]

    def to_config(self) -> BinConfig:
        ks = sorted(self.vol, reverse=True)
        return BinConfig(self.front, tuple(self.vol[k] for k in ks if self.vol[k] > 0))

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
