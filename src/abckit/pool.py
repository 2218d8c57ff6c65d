"""The one process pool behind every ``workers`` argument.

``workers`` must be at least 1 and is capped at the CPU count; callers split
their work into ``worker_count(workers)`` tasks, so their results never
depend on it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import BadParameter


def worker_count(workers: int) -> int:
    """``workers`` capped at the CPU count; BadParameter below 1."""
    if workers < 1:
        raise BadParameter(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], on min(workers, CPU count, len(tasks)) processes."""
    size = min(worker_count(workers), len(tasks))
    if size <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))
