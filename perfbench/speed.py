"""Machine-speed meter: times on a nominal machine.

A shared virtual machine runs the same Python code at speeds that vary by
tens of percent, both from one tenth of a second to the next and in spells
of seconds to minutes.  The meter times a fixed pure-Python pass
(reference_pass) every INTERVAL_S from a SIGALRM handler, which runs on the
main thread between bytecodes.  A pass due during an operation waits for
its end unless the operation has run DEFER_S already, so short operations
run whole and long ones are sampled inside.  An operation's time, less the
passes inside it, is scaled by REFERENCE_S over the mean of the last pass
before it and the passes up to its end.  A pass on another CPU does not
track the slowdowns of this one, and passes taken only between operations
miss what happens during long ones.  A change to liquidbin cannot move the
pass, so a regression shows in the scaled times in full.
"""
from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_S = 0.010  # nominal time of one reference_pass()
INTERVAL_S = 0.1
DEFER_S = 0.3


def reference_pass() -> float:
    """Seconds taken by a fixed 20 000-step dict-and-tuple loop.  The
    garbage collector is off meanwhile: a collection would add time that
    depends on the workload's heap, not on the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(20_000):
            key = (i, i * 7 % 13)
            table[key] = table.get(key, 0) + 1
            acc += hash(key) & 0xFF
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Takes a reference pass every INTERVAL_S while open, and times
    operations with start() and stop().  Keeps the totals of raw and
    scaled operation time."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.pass_s = 0.0  # wall time spent in passes
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._busy = False
        self._op_since: float | None = None  # perf_counter() at start() of the open operation
        self._pending = False
        self.take_passes()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # an alarm during take_passes() is dropped
            return
        if self._op_since is not None and perf_counter() - self._op_since < DEFER_S:
            self._pending = True
            return
        self.take_passes()

    def take_passes(self, n: int = 1) -> None:
        """Time n passes now.  Passes taken between start() and stop()
        count towards the scale, not towards the operation's time."""
        self._busy = True
        t0 = perf_counter()
        self.passes.extend(reference_pass() for _ in range(n))
        self.pass_s += perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """perf_counter() less the time spent in passes."""
        while True:
            spent = self.pass_s
            now = perf_counter()
            if spent == self.pass_s:
                return now - spent

    def start(self) -> tuple[float, int]:
        self._op_since = perf_counter()
        return self.clock(), len(self.passes)

    def stop(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(raw, scaled) seconds since start() returned mark; the scale
        comes from the last pass before the start and every pass since."""
        self._op_since = None
        if self._pending:
            self._pending = False
            self.take_passes()
        t0, n0 = mark
        raw = self.clock() - t0
        scaled = raw * REFERENCE_S / statistics.fmean(self.passes[n0 - 1:])
        self.raw_s += raw
        self.scaled_s += scaled
        return raw, scaled

    @contextmanager
    def paused(self):
        """No passes inside: for operations whose work runs in other
        processes, which the passes would take CPU from.  A pass taken on
        entry scales them."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.take_passes()
        try:
            yield
        finally:
            self._arm()

    def median_pass_s(self) -> float:
        return statistics.median(self.passes)
