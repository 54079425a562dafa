"""The asyncio HTTP/1.1 JSON server of the contention-prediction service.

Stdlib-only: a :class:`~repro.service.front.HttpFrontEnd` (shared with
the cluster router) reads requests off an :func:`asyncio.start_server`
stream and routes them to handlers that drive the model registry /
batcher; answers are JSON.  Operational behaviour:

* **per-request timeout** — a handler exceeding ``request_timeout_s``
  is cancelled and answered with 504;
* **concurrency limit** — more than ``max_concurrency`` in-flight
  requests are rejected immediately with 503 (load-shedding beats
  unbounded queueing for a latency-bound service);
* **structured errors** — every :class:`ReproError` maps to the JSON
  envelope and HTTP status of :mod:`repro.service.protocol`;
* **graceful shutdown** — the front end's, bounded by
  ``front.DRAIN_TIMEOUT_S``; the batcher is flushed before in-flight
  requests drain, so clients never see a torn response.

Endpoints: ``GET /healthz``, ``GET /metrics``, ``POST /calibrate``,
``POST /predict``, ``POST /predict_grid``, ``POST /advise`` — schemas
in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro.advisor import Advisor, Workload, advise_victim_placement
from repro.core.placement import PointPrediction
from repro.errors import ReproError, ServiceError
from repro.topology import get_platform
from repro.obs import span
from repro.service import protocol
from repro.service.batching import PredictBatcher
from repro.service.front import HttpFrontEnd
from repro.service.http11 import read_request, write_response
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry

__all__ = ["ContentionService"]

log = logging.getLogger("repro.service")


def _decode_json(body: bytes) -> object:
    """The JSON value of a request body; ``None`` when it is empty."""
    try:
        return json.loads(body.decode("utf-8")) if body else None
    # Nesting past the interpreter's recursion limit is a RecursionError,
    # not a JSONDecodeError.
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from None


class ContentionService(HttpFrontEnd):
    """One serving instance: registry + batcher + HTTP front end."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: ModelRegistry | None = None,
        metrics: ServiceMetrics | None = None,
        request_timeout_s: float = 30.0,
        max_concurrency: int = 64,
        batching: bool = True,
        cache_dir: "str | None" = None,
    ) -> None:
        if registry is not None and cache_dir is not None:
            raise ServiceError("pass either registry or cache_dir, not both")
        super().__init__(
            {
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("POST", "/calibrate"): self._handle_calibrate,
                ("POST", "/predict"): self._handle_predict,
                ("POST", "/predict_grid"): self._handle_predict_grid,
                ("POST", "/advise"): self._handle_advise,
            },
            host=host,
            port=port,
        )
        self.metrics = metrics or (
            registry.metrics if registry is not None else ServiceMetrics()
        )
        # `is not None`, not truthiness: an empty registry has len() == 0.
        self.registry = (
            registry
            if registry is not None
            else ModelRegistry(metrics=self.metrics, cache_dir=cache_dir)
        )
        self.batcher: PredictBatcher | None = (
            PredictBatcher(metrics=self.metrics) if batching else None
        )
        self._request_timeout_s = request_timeout_s
        self._max_concurrency = max_concurrency

    # ---- the front end's hooks -------------------------------------------------

    def _read(self, reader):
        return read_request(reader)

    def _write(self, writer, status, payload, *, keep_alive=False):
        return write_response(writer, status, payload, keep_alive=keep_alive)

    def _observe(self, endpoint: str, status: int, seconds: float) -> None:
        self.metrics.observe_request(endpoint, status, seconds)

    async def _before_drain(self) -> None:
        if self.batcher is not None:
            await self.batcher.drain()

    async def _answer(
        self, handler, endpoint: str, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes]:
        if self.metrics.in_flight >= self._max_concurrency:
            self.metrics.rejected_total += 1
            return 503, protocol.error_payload(
                ServiceError(
                    f"concurrency limit reached "
                    f"({self._max_concurrency} requests in flight)"
                ),
                status=503,
            )
        self.metrics.in_flight += 1
        with span("service.request", endpoint=endpoint) as request_span:
            try:
                parsed = None
                if (method, path) == ("POST", "/predict"):
                    # A bulk body in the form ``json.dumps`` writes is
                    # read straight to its parsed request.
                    parsed = protocol.read_bulk_predict(body)
                if parsed is None:
                    parsed = _decode_json(body)
                payload = await asyncio.wait_for(
                    handler(parsed), timeout=self._request_timeout_s
                )
                status = 200
            except asyncio.TimeoutError:
                self.metrics.timeouts_total += 1
                status = 504
                payload = protocol.error_payload(
                    ServiceError(
                        f"request exceeded the {self._request_timeout_s:g}s "
                        "timeout"
                    ),
                    status=504,
                )
            except ReproError as exc:
                status = protocol.http_status_for(exc)
                payload = protocol.error_payload(exc, status=status)
            except Exception as exc:  # noqa: BLE001 — the envelope must hold
                log.warning(
                    "internal error handling %s %s: %s", method, path, exc
                )
                status = 500
                payload = protocol.error_payload(exc, status=500)
            finally:
                self.metrics.in_flight -= 1
            request_span.tag(status=status)
        return status, payload

    # ---- endpoint handlers -----------------------------------------------------

    async def _handle_healthz(self, _body: object) -> dict:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "models_cached": len(self.registry),
            "batching": self.batcher is not None,
        }

    async def _handle_metrics(self, _body: object) -> dict:
        return self.metrics.snapshot()

    async def _handle_calibrate(self, body: object) -> dict:
        platform, seed = protocol.parse_calibrate(body)
        cached = self.registry.cached(platform, seed)
        entry = await self.registry.get(platform, seed)
        return {
            "platform": platform,
            "seed": seed,
            "cached": cached,
            "local": entry.model.local.to_dict(),
            "remote": entry.model.remote.to_dict(),
            "error_average_pct": entry.error_average_pct,
            "n_numa_nodes": entry.model.n_numa_nodes,
            "nodes_per_socket": entry.model.nodes_per_socket,
        }

    def _backend_model(self, entry: ModelEntry, backend: str | None):
        """Resolve a ``backend=`` selector against one registry entry:
        ``(model, backend id, tournament route counts before)``.

        Absent or ``threshold`` answers from the entry's model;
        ``tournament`` with the per-regime winner router, whose route
        counts are copied so the caller can count the routed queries;
        any other name must be a backend calibrated for the entry.
        Entries built by custom calibrators carry no backends and answer
        a structured 400 to any selector but ``threshold``.
        """
        if backend is None or backend == "threshold":
            return entry.model, "threshold", None
        if entry.backends is None or entry.tournament is None:
            raise ServiceError(
                f"backend selection is not available for platform "
                f"{entry.key.platform!r} (entry has no calibrated backends)"
            )
        if backend == "tournament":
            routes = dict(entry.tournament.route_counts)
            return entry.tournament, backend, routes
        try:
            return entry.backends[backend], backend, None
        except KeyError:
            known = ", ".join([*entry.backends, "tournament"])
            raise ServiceError(
                f"unknown backend {backend!r}; available: {known}"
            ) from None

    def _observe_backend_queries(
        self,
        entry: ModelEntry,
        backend: str,
        n_queries: int,
        routes_before: dict | None,
    ) -> None:
        """Count served queries per backend; tournament queries also
        count per routed winner (``tournament:<winner>``)."""
        self.metrics.observe_backend(backend, n_queries)
        if routes_before is not None:
            for winner, count in entry.tournament.route_counts.items():
                delta = count - routes_before.get(winner, 0)
                if delta > 0:
                    self.metrics.observe_backend(
                        f"tournament:{winner}", delta
                    )

    async def _handle_predict(self, body: object) -> dict | bytes:
        # A tuple is a request ``protocol.read_bulk_predict`` has already
        # parsed; JSON never decodes to one.
        if not isinstance(body, tuple):
            body = protocol.parse_predict(body)
        platform, seed, queries, is_bulk, backend = body
        entry = await self.registry.get(platform, seed)
        model, backend_id, routes_before = self._backend_model(entry, backend)
        echo = {"platform": platform, "seed": seed}
        if backend is not None:
            echo["backend"] = backend
        if backend_id == "threshold" and not is_bulk:
            # A scalar query of the paper's model: coalesced with
            # concurrent ones by the batcher.
            result = await self._predict_one(entry, queries[0])
            self.metrics.observe_backend(backend_id)
            return {**result.to_dict(), **echo}
        # A bulk request is already a batch, and other backends do not
        # batch: answer from the model's columns, with no per-query
        # prediction objects.
        with span(
            "service.batch", platform=platform, size=len(queries),
            backend=backend_id,
        ):
            cols = model.predict_columns(queries)
        self._observe_backend_queries(
            entry, backend_id, len(queries), routes_before
        )
        if is_bulk:
            # Encoded here, so the request's timeout, span and latency
            # timer cover it.
            return protocol.encode_results(echo, cols)
        return {**protocol.result_rows(cols)[0], **echo}

    async def _predict_one(
        self, entry: ModelEntry, query: tuple[int, int, int]
    ) -> PointPrediction:
        if self.batcher is None:
            return entry.model.predict_batch([query])[0]
        return await self.batcher.predict(entry, *query)

    async def _handle_predict_grid(self, body: object) -> dict:
        platform, seed, core_counts, placements = protocol.parse_predict_grid(
            body
        )
        entry = await self.registry.get(platform, seed)
        grid = entry.model.predict_grid(core_counts, placements)
        return {
            "platform": platform,
            "seed": seed,
            "core_counts": core_counts,
            "grid": [
                {
                    "m_comp": m_comp,
                    "m_comm": m_comm,
                    "comp_parallel": pred.comp_parallel.tolist(),
                    "comm_parallel": pred.comm_parallel.tolist(),
                    "comp_alone": pred.comp_alone.tolist(),
                    "comm_alone": pred.comm_alone,
                }
                for (m_comp, m_comm), pred in grid.items()
            ],
        }

    async def _handle_advise(self, body: object) -> dict:
        if protocol.is_victim_advise(body):
            return self._advise_victim(body)
        platform, seed, comp_bytes, comm_bytes, top, backend = (
            protocol.parse_advise(body)
        )
        entry = await self.registry.get(platform, seed)
        model, backend_id, routes_before = self._backend_model(entry, backend)
        advisor = Advisor(model, entry.platform.machine)
        workload = Workload(comp_bytes=comp_bytes, comm_bytes=comm_bytes)
        recommendations = advisor.recommend(workload, top=top)
        self._observe_backend_queries(entry, backend_id, 1, routes_before)
        payload = {
            "platform": platform,
            "seed": seed,
            "recommendations": [r.to_dict() for r in recommendations],
        }
        if backend is not None:
            payload["backend"] = backend
        return payload

    def _advise_victim(self, body: object) -> dict:
        """Victim-placement mode of ``/advise``.

        Runs on the simulator directly (the multi-tenant scheduler
        needs the machine, not a calibrated model), so no registry
        entry — and no calibration — is required.
        """
        platform, seed, top = protocol.parse_advise_victim(body)
        spec = get_platform(platform)
        placements = advise_victim_placement(
            spec.machine, spec.profile, top=top
        )
        return {
            "platform": platform,
            "seed": seed,
            "victim": True,
            "placements": [p.to_dict() for p in placements],
        }
