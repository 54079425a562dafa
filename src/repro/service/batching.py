"""Coalesce concurrent scalar predictions into one vectorized pass.

A scalar ``/predict`` is one table lookup once the model is calibrated,
but every request still pays the per-call Python overhead of query
validation and result building.  When many clients query the same
model concurrently, the batcher parks each query for a tiny window (one
event-loop tick by default), then answers the whole accumulated batch
with a single :meth:`PlacementModel.predict_batch` — one vectorized
lookup — and fans the scalars back out.

Correctness contract: a batched answer is bit-identical to the direct
scalar call, because ``predict_batch`` reads the very same tables. A
query that fails (say an out-of-range NUMA node) fails alone: the flush
falls back to per-query evaluation so one bad request cannot poison the
batch it happened to share.  Every parked query is resolved, with its
answer or its own error, even when that error is not a
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.placement import PointPrediction
from repro.obs import span
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelKey

__all__ = ["PredictBatcher"]


@dataclass
class _Queue:
    """Pending queries of one model, plus the flusher that will drain them."""

    entry: ModelEntry
    queries: list[tuple[int, int, int]] = field(default_factory=list)
    futures: list[asyncio.Future] = field(default_factory=list)
    flusher: asyncio.Task | None = None


class PredictBatcher:
    """Per-model accumulation of scalar queries, flushed as one batch."""

    def __init__(
        self,
        *,
        window_s: float = 0.0,
        max_batch: int = 256,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self._window_s = window_s
        self._max_batch = max_batch
        self._metrics = metrics or ServiceMetrics()
        self._queues: dict[ModelKey, _Queue] = {}

    async def predict(
        self, entry: ModelEntry, n: int, m_comp: int, m_comm: int
    ) -> PointPrediction:
        """Enqueue one scalar query; resolves when its batch flushes."""
        loop = asyncio.get_running_loop()
        queue = self._queues.get(entry.key)
        if queue is None:
            queue = _Queue(entry=entry)
            self._queues[entry.key] = queue
        future: asyncio.Future = loop.create_future()
        queue.queries.append((n, m_comp, m_comm))
        queue.futures.append(future)
        if len(queue.queries) >= self._max_batch:
            self._flush(entry.key)
        elif queue.flusher is None:
            queue.flusher = loop.create_task(self._flush_later(entry.key))
        return await future

    async def drain(self) -> None:
        """Flush everything pending (used by graceful shutdown)."""
        for key in list(self._queues):
            self._flush(key)

    # ---- internals -------------------------------------------------------------

    async def _flush_later(self, key: ModelKey) -> None:
        # sleep(0) yields exactly one event-loop tick: every predict
        # already sitting in the loop's ready queue joins the batch,
        # while an isolated request is answered with no added latency.
        await asyncio.sleep(self._window_s)
        self._flush(key)

    def _flush(self, key: ModelKey) -> None:
        queue = self._queues.pop(key, None)
        if queue is None:
            return
        if queue.flusher is not None and not queue.flusher.done():
            current = None
            try:
                current = asyncio.current_task()
            except RuntimeError:
                pass
            if queue.flusher is not current:
                queue.flusher.cancel()
        if not queue.queries:
            return
        self._metrics.observe_batch(len(queue.queries))
        model = queue.entry.model
        with span(
            "service.batch", platform=key.platform, size=len(queue.queries)
        ):
            try:
                results = model.predict_batch(queue.queries)
            except Exception:
                # At least one query fails; isolate it by answering each
                # query on its own.  An unexpected error is handed to its
                # own request too (a 500) rather than escaping the flush
                # and leaving every parked future to time out.
                results = []
                for query in queue.queries:
                    try:
                        results.append(model.predict_batch([query])[0])
                    except Exception as exc:
                        results.append(exc)
        for future, result in zip(queue.futures, results):
            if future.cancelled():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)
