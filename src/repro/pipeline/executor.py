"""Parallel execution of independent units of pipeline work.

Independent units of pipeline work — one row of placements of a sweep,
one platform of ``run_all_experiments`` — share no state: measurement
noise is keyed by ``(seed, measurement key)``, never by call order, so
the numbers are bit-identical no matter how the units are scheduled.
This module provides the one scheduling primitive the pipeline needs:
:func:`parallel_map`, an order-preserving map over a process pool.

Processes sidestep the GIL (the sweeps are Python-loop bound); the
callable and the items must be picklable, which every pipeline work
unit is.  ``jobs=1`` runs inline with no executor at all, so the serial
path stays the trivially debuggable one.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import PipelineError

__all__ = ["parallel_map", "resolve_jobs"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean "one worker per CPU"; negative counts are a
    caller bug.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise PipelineError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 0:
        raise PipelineError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    jobs: int = 1,
) -> list[_R]:
    """``[fn(item) for item in items]``, possibly across worker processes.

    Results are returned in item order regardless of completion order.
    The first worker exception propagates to the caller unchanged (its
    siblings are cancelled where possible), so error behaviour matches
    the serial loop.
    """
    jobs = resolve_jobs(jobs)
    work: Sequence[_T] = list(items)
    if jobs == 1 or len(work) <= 1:
        return [fn(item) for item in work]

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as executor:
        futures = [executor.submit(fn, item) for item in work]
        _, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in not_done:
            future.cancel()
        # Raise the first *submitted* failure, not a CancelledError from
        # a sibling that was cancelled because of it.
        for future in futures:
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is not None:
                    raise exc
        return [future.result() for future in futures]
