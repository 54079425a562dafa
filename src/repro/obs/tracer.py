"""Hierarchical spans, counters, and the global tracer switch.

The tracing layer answers the one question every performance PR needs
answered first: *where does the time go* across
measure→calibrate→predict→score, the sweep fan-out, and the service
request path.  Design constraints, in order:

1. **Disabled tracing costs effectively nothing.**  ``span(...)`` with
   no tracer installed allocates one tiny ``__slots__`` handle and does
   two attribute stores — no locks, no clock reads, no recording.  The
   overhead bound is asserted by ``tests/obs/test_overhead.py``.
2. **Thread-safe collection.**  Spans may finish concurrently on
   several threads (the service registry calibrates on executor
   threads); the record list is guarded by one lock taken only at span
   *exit* (and counter increments), never per clock read.
3. **Correct nesting everywhere.**  The current-span chain lives in a
   :mod:`contextvars` variable, so parents resolve correctly across
   ``await`` points in the asyncio service as well as across plain
   nested ``with`` blocks.  A worker thread starts a fresh context and
   therefore a fresh span root — its spans are distinguished by
   ``tid``, exactly how Chrome's trace viewer lanes them.

Process-pool fan-out (``parallel_map``) records spans in the *child*
process's tracer, which dies with the worker; callers that need
per-item spans under a process pool should instrument at the
granularity the parent observes (the grid span), as
:mod:`repro.bench.sweep` does.

Timestamps are monotonic (``time.perf_counter_ns``) relative to the
tracer's construction, in microseconds — the native unit of the Chrome
trace-event format.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "CounterRecord",
    "SpanRecord",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "span",
    "tracing",
]

#: The id of the innermost live span in this context (None at root).
#: Module-level so every Tracer shares one chain: only one tracer is
#: active at a time, and contextvars registered dynamically per
#: instance would never be reclaimed.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, tagged interval on one thread."""

    span_id: int
    parent_id: int | None
    name: str
    #: Microseconds since the tracer epoch (monotonic clock).
    start_us: float
    duration_us: float
    pid: int
    tid: int
    tags: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class CounterRecord:
    """One counter increment (e.g. a cache hit) at a point in time."""

    name: str
    value: float
    at_us: float
    pid: int
    tid: int
    tags: Mapping[str, Any] = field(default_factory=dict)


class Tracer:
    """Thread-safe collector of span and counter records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._counters: list[CounterRecord] = []
        self._epoch_ns = time.perf_counter_ns()
        self._next_id = 0

    # ---- clocks and ids --------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this tracer was created (monotonic)."""
        return (time.perf_counter_ns() - self._epoch_ns) / 1e3

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # ---- recording -------------------------------------------------------------

    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def record_counter(
        self, name: str, value: float = 1, tags: Mapping[str, Any] | None = None
    ) -> None:
        record = CounterRecord(
            name=name,
            value=value,
            at_us=self.now_us(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            tags=dict(tags or {}),
        )
        with self._lock:
            self._counters.append(record)

    # ---- views -----------------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def counters(self) -> list[CounterRecord]:
        with self._lock:
            return list(self._counters)

    def counter_totals(self) -> dict[str, float]:
        """Summed counter values by name."""
        totals: dict[str, float] = {}
        for record in self.counters():
            totals[record.name] = totals.get(record.name, 0) + record.value
        return totals

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._counters.clear()


class _SpanHandle:
    """What :func:`span` returns: a context manager *and* a decorator.

    The active tracer is resolved at ``__enter__`` (and, for decorated
    functions, at every call), never at construction — so decorating at
    import time works no matter when tracing is switched on, and a
    handle built while tracing is disabled is a pure no-op.
    """

    __slots__ = ("_name", "_tags", "_tracer", "_span_id", "_start_us", "_token")

    def __init__(self, name: str, tags: dict[str, Any]) -> None:
        self._name = name
        self._tags = tags
        self._tracer: Tracer | None = None

    def tag(self, **tags: Any) -> "_SpanHandle":
        """Attach tags discovered mid-span (e.g. the cache outcome)."""
        if self._tracer is not None:
            self._tags.update(tags)
        return self

    def __enter__(self) -> "_SpanHandle":
        tracer = _active
        self._tracer = tracer
        if tracer is None:
            return self
        self._span_id = tracer._new_id()
        self._token = _CURRENT.set(self._span_id)
        self._start_us = tracer.now_us()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        tracer = self._tracer
        if tracer is None:
            return False
        end_us = tracer.now_us()
        token = self._token
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = None
        try:
            _CURRENT.reset(token)
        except ValueError:
            # Exited in a different context than entered (exotic
            # generator reuse); the chain is already gone with it.
            pass
        if exc_type is not None:
            self._tags.setdefault("error", exc_type.__name__)
        tracer._record_span(
            SpanRecord(
                span_id=self._span_id,
                parent_id=parent,
                name=self._name,
                start_us=self._start_us,
                duration_us=end_us - self._start_us,
                pid=os.getpid(),
                tid=threading.get_ident(),
                tags=dict(self._tags),
            )
        )
        self._tracer = None
        return False

    def __call__(self, fn: Callable) -> Callable:
        name, tags = self._name, self._tags

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with _SpanHandle(name, dict(tags)):
                return fn(*args, **kwargs)

        return wrapper


# ---- the global switch -----------------------------------------------------------

_active: Tracer | None = None
_switch_lock = threading.Lock()


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-wide tracer.

    Passing an existing tracer resumes collection into it; the default
    installs a fresh one.
    """
    global _active
    with _switch_lock:
        _active = tracer if tracer is not None else Tracer()
        return _active


def disable() -> Tracer | None:
    """Remove the active tracer; returns it so records can be exported."""
    global _active
    with _switch_lock:
        tracer, _active = _active, None
        return tracer


def is_enabled() -> bool:
    return _active is not None


def get_tracer() -> Tracer | None:
    """The active tracer, or None when tracing is disabled."""
    return _active


def span(name: str, **tags: Any) -> _SpanHandle:
    """A named span: ``with span("calibrate", platform="henri"): ...``.

    Also usable as a decorator: ``@span("predict")``.  With tracing
    disabled this is a no-op costing one small allocation.
    """
    return _SpanHandle(name, tags)


def counter(name: str, value: float = 1, **tags: Any) -> None:
    """Increment a named counter (no-op while tracing is disabled)."""
    tracer = _active
    if tracer is not None:
        tracer.record_counter(name, value, tags)


@contextlib.contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable tracing for a block, restoring the previous state after.

    Convenience for tests and library callers::

        with tracing() as tracer:
            run_platform_experiment("henri")
        write_jsonl(tracer, "trace.jsonl")
    """
    global _active
    previous = _active
    installed = enable(tracer)
    try:
        yield installed
    finally:
        with _switch_lock:
            _active = previous
