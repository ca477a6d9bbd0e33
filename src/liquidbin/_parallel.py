"""The one process-pool fan-out shared by sweeps, probes and Monte Carlo,
and the one way their units of work derive seeds from a master seed."""
from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """[fn(x) for x in items], in order, on at most min(jobs, len(items))
    worker processes; serial when that is one.  fn must be picklable."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Independent per-unit seeds from one master seed (SeedSequence
    spawning), so outputs do not depend on the worker count."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(count)]
