"""Per-layer spans for a traced benchmark run, installed from outside.

:func:`install` replaces the callables each layer's caller looks up at
call time with wrappers that record one span per call, and enables
``repro.obs`` so the program's own ``pipeline.*``, ``store.*`` and
``service.calibrate`` spans are captured too.  Nothing under ``src/``
changes.  A server turns ``repro.obs`` off once it listens: on the
request path the wrappers' spans cover what ``service.request`` and
``service.batch`` would.

Call it before a ``ContentionService`` is built: the service captures
its bound handlers in a routing table at construction.

Spans cost.  Traced in full, a scalar request took 14 % longer on a
2-core VM.  So a server traces a request only when its body is at least
``ALWAYS_TRACED_BYTES`` long or its CRC is a multiple of
``SAMPLE_EVERY``; the router and the worker decide alike from the same
bytes, and so can the load generator.  For any other request a wrapper
calls straight through, without adding a coroutine layer.  Outside
requests, as at set-up or in the offline workloads, everything is
traced.

Why not ``repro.obs`` spans for the wrappers too: one costs 6-9 us on
that VM, where a scalar request costs the server about 0.3 ms of CPU
time.  With them, even sampled, and with ``repro.obs`` on only while a
traced request was in flight, ``trace_overhead_pct`` on ``scalar`` was
13.8-14.8 % over three runs and a traced request took 31-35 % longer
than an untraced one; with the plain tuples here, 6.2-6.8 % and 7-13 %.
So the wrappers record tuples, which leave nothing for the garbage
collector to scan, with their own span ids and parent chain.  The
program's spans form trees of their own; they are timed per call, which
needs no common tree.

Every span of one traced request carries its request id ``rid``, set
when ``read_request`` returns and inherited by the tasks the request
spawns (the batcher's flush).  Readers and the router's forwards also
record the body's key (:func:`traced_key`), which is how the load
generator's, the router's and the worker's spans of one request are
joined later.

The event loop's idle spells, the time it waits in ``select``, are
recorded too: a request's time that no span covers is then split into
waiting behind other work (the loop was busy) and waiting on the
network (it was idle).

Times are ``time.perf_counter`` seconds.  That clock is CLOCK_MONOTONIC
on Linux, the same in every process.
"""

from __future__ import annotations

import array
import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import selectors
import time
import types
import zlib
from pathlib import Path

from repro import obs

SAMPLE_EVERY = 8
ALWAYS_TRACED_BYTES = 64 * 1024

#: Whether the request this task serves is traced (True outside requests).
TRACED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "e2e_traced", default=True
)
#: Id of the traced request this task serves.
REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "e2e_request_id", default=None
)
#: Id of the innermost open span in this task.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "e2e_current_span", default=None
)
_request_ids = itertools.count(1)
_span_ids = itertools.count(1)
#: (name, id, parent, start, end, rid, body key) of every finished span.
SPANS: list[tuple] = []
#: Start and end of every spell the event loop waited in ``select``.
IDLE_STARTS, IDLE_ENDS = array.array("d"), array.array("d")


def traced_key(body: bytes | None) -> str | None:
    """The key of a request body that is traced, or None."""
    body = body or b""
    crc = zlib.crc32(body)
    if len(body) >= ALWAYS_TRACED_BYTES or crc % SAMPLE_EVERY == 0:
        return f"{len(body)}:{crc:08x}"
    return None


def _enter() -> tuple[int, contextvars.Token, float]:
    span_id = next(_span_ids)
    return span_id, _CURRENT.set(span_id), time.perf_counter()


def _exit(name, span_id, token, start, body=None) -> None:
    end = time.perf_counter()
    _CURRENT.reset(token)
    SPANS.append(
        (name, span_id, token.old_value, start, end, REQUEST_ID.get(), body)
    )


@contextlib.contextmanager
def span(name: str):
    """A span around a block of the benchmark's own code."""
    span_id, token, start = _enter()
    try:
        yield
    finally:
        _exit(name, span_id, token, start)


def _traced(fn, name: str, key=None):
    """A span per call of ``fn`` while the current request is traced.

    ``key``, called with ``fn``'s arguments, gives the span's body key.
    """
    if inspect.iscoroutinefunction(fn):

        async def timed(*args, **kwargs):
            span_id, token, start = _enter()
            try:
                return await fn(*args, **kwargs)
            finally:
                body = key(*args, **kwargs) if key is not None else None
                _exit(name, span_id, token, start, body)

        @functools.wraps(fn)
        def traced_async(*args, **kwargs):
            return (timed if TRACED.get() else fn)(*args, **kwargs)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not TRACED.get():
            return fn(*args, **kwargs)
        span_id, token, start = _enter()
        try:
            return fn(*args, **kwargs)
        finally:
            _exit(name, span_id, token, start)

    return traced


def _reads_request(fn, name: str):
    """``read_request`` wrapper that decides whether the request is traced."""
    prefix = f"{os.getpid()}."

    @functools.wraps(fn)
    async def traced_read(reader):
        start = time.perf_counter()
        request = await fn(reader)
        key = traced_key(request[2])
        TRACED.set(key is not None)
        REQUEST_ID.set(None if key is None else prefix + str(next(_request_ids)))
        if key is not None:
            SPANS.append((name, next(_span_ids), _CURRENT.get(), start,
                          time.perf_counter(), REQUEST_ID.get(), key))
        return request

    return traced_read


def _forwarded_key(_pool, _host, _port, _method, _path, body=None, **_):
    """The body key of a ``WorkerPool.request`` call."""
    return traced_key(body)


def _then_untraced(start):
    """``ContentionService.start`` that switches ``repro.obs`` off after."""

    @functools.wraps(start)
    async def start_untraced(self):
        await start(self)
        obs.disable()

    return start_untraced


def _records_idle(select):
    """``select`` that records each spell it may have blocked."""

    @functools.wraps(select)
    def timed_select(self, timeout=None):
        start = time.perf_counter()
        try:
            return select(self, timeout)
        finally:
            if timeout is None or timeout > 0:
                IDLE_STARTS.append(start)
                IDLE_ENDS.append(time.perf_counter())

    return timed_select


def _json_with(**spans: str) -> types.ModuleType:
    """A stand-in ``json`` module whose named functions are traced."""
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    for attr, name in spans.items():
        setattr(proxy, attr, _traced(getattr(json, attr), name))
    return proxy


def install() -> tuple[obs.Tracer, float]:
    """Wrap every layer boundary and enable tracing.

    Returns the tracer and its epoch in ``perf_counter`` seconds.
    """
    from repro.backends import tournament
    from repro.cluster import pool, router
    from repro.core.compiled import CompiledModel
    from repro.memsim import arbiter, scenario
    from repro.service import batching, http11, protocol, registry, server

    server.read_request = _reads_request(
        server.read_request, "http11.read_request"
    )
    server.write_response = _traced(
        server.write_response, "http11.write_response"
    )
    server.json = _json_with(loads="server.json_decode")
    http11.json = _json_with(dumps="http11.json_encode")
    service = server.ContentionService
    service.start = _then_untraced(service.start)
    service._handle_predict = _traced(
        service._handle_predict, "server.handle_predict"
    )
    protocol.parse_predict = _traced(
        protocol.parse_predict, "protocol.parse_predict"
    )
    registry.ModelRegistry.get = _traced(
        registry.ModelRegistry.get, "registry.get"
    )
    batching.PredictBatcher.predict = _traced(
        batching.PredictBatcher.predict, "batching.predict"
    )
    for method in ("predict_batch", "predict_columns"):
        setattr(
            CompiledModel,
            method,
            _traced(getattr(CompiledModel, method), f"compiled.{method}"),
        )

    router.read_request = _reads_request(
        router.read_request, "router.read_request"
    )
    router.write_response = _traced(
        router.write_response, "router.write_response"
    )
    router.json = _json_with(loads="router.json_decode")
    pool.WorkerPool.request = _traced(
        pool.WorkerPool.request, "pool.request", key=_forwarded_key
    )

    tournament.run_platform_tournament = _traced(
        tournament.run_platform_tournament, "tournament.run"
    )
    arbiter.Arbiter.solve = _traced(arbiter.Arbiter.solve, "arbiter.solve")
    arbiter.filter_dram_demand = _traced(
        arbiter.filter_dram_demand, "llc.filter_dram_demand"
    )
    scenario.build_tenant_streams = _traced(
        scenario.build_tenant_streams, "scenario.build_tenant_streams"
    )
    scenario.solve_tenant_scenario = _traced(
        scenario.solve_tenant_scenario, "scenario.solve_tenant_scenario"
    )
    selector = selectors.DefaultSelector
    selector.select = _records_idle(selector.select)

    tracer = obs.enable()
    epoch_s = time.perf_counter() - tracer.now_us() / 1e6
    return tracer, epoch_s


def dump(tracer: obs.Tracer, epoch_s: float, path: Path, role: str) -> None:
    """Write every span, counter and idle spell as JSON lines, on the
    shared clock.  The wrappers' span ids are negated, so that they
    differ from the program's."""
    pid = os.getpid()
    with open(path, "w", encoding="utf-8") as out:
        for name, span_id, parent, start, end, rid, body in SPANS:
            # Token.MISSING or None: no span was open.
            parent = -parent if isinstance(parent, int) else None
            record = [role, pid, -span_id, parent, name, start, end, rid, body]
            out.write(json.dumps(record) + "\n")
        for s in tracer.spans():
            record = [
                role,
                pid,
                s.span_id,
                s.parent_id,
                s.name,
                epoch_s + s.start_us / 1e6,
                epoch_s + s.end_us / 1e6,
                None,
                None,
            ]
            out.write(json.dumps(record) + "\n")
        for c in tracer.counters():
            out.write(json.dumps({"counter": c.name, "value": c.value}) + "\n")
        idle = list(zip(IDLE_STARTS, IDLE_ENDS))
        out.write(json.dumps({"idle": idle, "role": role, "pid": pid}) + "\n")
