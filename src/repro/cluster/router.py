"""Router: the single front door of a worker fleet.

Clients speak the exact single-process service protocol
(``docs/SERVICE.md``) to one host:port; the router makes the fleet
behind it look like that one service:

* **sharded routing** — POST bodies carry ``platform`` (and optionally
  ``seed``); the shard map names the owning workers and the request is
  forwarded to the primary, so each model's cache traffic stays on the
  workers that preloaded it;
* **replica failover** — a connection-level failure (refused, reset,
  timed out) walks the remaining replicas in owner order before giving
  up; only when *every* replica is unreachable does the client see a
  503 envelope.  HTTP-level worker errors (4xx/5xx with a body) are
  relayed verbatim — they are answers, not outages;
* **self-healing** — a background health loop polls worker process
  liveness, respawns the dead (warm, from the shared artifact store)
  and retires crash-loopers, rebalancing the shard map;
* **keep-alive forwarding** — worker connections come from a
  :class:`~repro.cluster.pool.WorkerPool` of keep-alive streams, so a
  forward costs one exchange, not one TCP handshake; pool health
  (opens/reuses/discards/evictions/stale retries) is part of the
  ``/metrics`` router block.

Fleet-wide introspection: ``GET /healthz`` (worker states, shard-map
version), ``GET /shards`` (the shard-map spec and worker addresses),
``GET /metrics`` (router counters plus a scrape-and-merge of every live
worker's metrics and tracing snapshot).

The listener, keep-alive loop, 404/405 routing and prompt shutdown are
the worker's own: both are a :class:`~repro.service.front.HttpFrontEnd`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro.cluster.pool import WorkerPool
from repro.errors import ClusterError, ServiceError
from repro.obs import merge_tracing_snapshots
from repro.service import protocol
from repro.service.front import HttpFrontEnd
from repro.service.http11 import (
    HttpError,
    read_request,
    write_response,
)

__all__ = ["ClusterRouter", "RouterMetrics"]

log = logging.getLogger("repro.cluster")

#: POST endpoints forwarded to shard owners; everything else is local.
FORWARDED_ENDPOINTS = ("/calibrate", "/predict", "/predict_grid", "/advise")

#: Seconds a forward may take on one replica before failing over.
FORWARD_TIMEOUT_S = 60.0


class RouterMetrics:
    """Counters of the routing tier itself (workers keep their own)."""

    def __init__(self, pool: WorkerPool | None = None) -> None:
        #: The router's worker connection pool, surfaced in snapshots.
        self.pool = pool
        #: (endpoint, status) -> count, as answered to the client.
        self.requests_total: dict[tuple[str, int], int] = {}
        #: worker_id -> requests forwarded to it (including failed tries).
        self.forwards: dict[str, int] = {}
        self.failovers_total = 0
        #: Requests for which every replica was unreachable.
        self.unroutable_total = 0
        self.worker_restarts = 0
        self.workers_retired = 0
        self.health_checks = 0

    def observe(self, endpoint: str, status: int) -> None:
        key = (endpoint, status)
        self.requests_total[key] = self.requests_total.get(key, 0) + 1

    def snapshot(self) -> dict:
        return {
            "connection_pool": (
                self.pool.snapshot() if self.pool is not None else None
            ),
            "requests": {
                "total": sum(self.requests_total.values()),
                "by_endpoint": [
                    {"endpoint": endpoint, "status": status, "count": count}
                    for (endpoint, status), count in sorted(
                        self.requests_total.items()
                    )
                ],
            },
            "forwards": dict(sorted(self.forwards.items())),
            "failovers": self.failovers_total,
            "unroutable": self.unroutable_total,
            "health": {
                "checks": self.health_checks,
                "worker_restarts": self.worker_restarts,
                "workers_retired": self.workers_retired,
            },
        }


class ClusterRouter(HttpFrontEnd):
    """Async HTTP front end over a :class:`~repro.cluster.Supervisor`."""

    def __init__(
        self,
        supervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health_interval_s: float = 0.25,
    ) -> None:
        super().__init__(
            {
                ("GET", "/healthz"): self._healthz,
                ("GET", "/shards"): self._shards,
                ("GET", "/metrics"): self._cluster_metrics,
                **{
                    ("POST", path): self._forward
                    for path in FORWARDED_ENDPOINTS
                },
            },
            host=host,
            port=port,
        )
        self.supervisor = supervisor
        self._pool = WorkerPool()
        self.metrics = RouterMetrics(pool=self._pool)
        self._health_interval_s = health_interval_s
        self._health_task: asyncio.Task | None = None

    # ---- the front end's hooks -------------------------------------------------

    def _read(self, reader):
        return read_request(reader)

    def _write(self, writer, status, payload, *, keep_alive=False):
        return write_response(writer, status, payload, keep_alive=keep_alive)

    def _observe(self, endpoint: str, status: int, seconds: float) -> None:
        self.metrics.observe(endpoint, status)

    async def _answer(
        self, handler, endpoint: str, method: str, path: str, body: bytes
    ) -> tuple[int, "dict | bytes"]:
        return await handler(path, body)

    async def start(self) -> None:
        await super().start()
        if self._health_interval_s > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )

    async def _before_drain(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None

    async def _after_close(self) -> None:
        await self._pool.aclose()

    # ---- health loop -----------------------------------------------------------

    async def _health_loop(self) -> None:
        """Respawn dead workers; retire ones that burn their restart budget."""
        while True:
            await asyncio.sleep(self._health_interval_s)
            self.metrics.health_checks += 1
            for worker_id, alive in self.supervisor.poll().items():
                if alive:
                    continue
                log.warning("worker %s is down; respawning", worker_id)
                # Subprocess spawn blocks for ~ms; run it off-loop so
                # in-flight proxying never stalls behind a restart.
                revived = await asyncio.get_running_loop().run_in_executor(
                    None, self.supervisor.respawn, worker_id
                )
                if revived:
                    self.metrics.worker_restarts += 1
                else:
                    self.metrics.workers_retired += 1

    # ---- local endpoints -------------------------------------------------------
    #
    # Each route's handler takes the path and body and returns the
    # status and payload, as :meth:`_forward` does.

    async def _healthz(self, _path: str, _body: bytes) -> tuple[int, dict]:
        from repro import __version__

        statuses = [s.as_dict() for s in self.supervisor.statuses()]
        alive = sum(1 for s in statuses if s["alive"])
        active = sum(1 for s in statuses if not s["retired"])
        return 200, {
            "status": "ok" if alive == active and active > 0 else "degraded",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "workers": statuses,
            "workers_alive": alive,
            "shard_version": self.supervisor.shardmap.version,
        }

    async def _shards(self, _path: str, _body: bytes) -> tuple[int, dict]:
        """The routing table: shard-map spec plus worker addresses."""
        return 200, {
            "shardmap": self.supervisor.shardmap.spec(),
            "workers": {
                s.worker_id: s.as_dict() for s in self.supervisor.statuses()
            },
        }

    async def _cluster_metrics(
        self, _path: str, _body: bytes
    ) -> tuple[int, dict]:
        """Router counters plus a concurrent scrape of every live worker."""

        async def scrape(worker_id: str) -> "tuple[str, dict | None]":
            handle = self.supervisor.handle(worker_id)
            try:
                status, raw = await self._pool.request(
                    handle.host, handle.port, "GET", "/metrics", timeout=5.0
                )
                if status != 200:
                    return worker_id, None
                return worker_id, json.loads(raw.decode("utf-8"))
            except (HttpError, OSError, asyncio.TimeoutError, ValueError):
                return worker_id, None

        alive = sorted(self.supervisor.alive_workers())
        scraped = dict(await asyncio.gather(*(scrape(w) for w in alive)))
        workers = {w: snap for w, snap in scraped.items() if snap is not None}
        return 200, {
            "router": self.metrics.snapshot(),
            "workers": workers,
            "tracing": merge_tracing_snapshots(
                [snap.get("tracing") for snap in workers.values()]
            ),
        }

    # ---- forwarding ------------------------------------------------------------

    @staticmethod
    def _routing_key(body: bytes) -> tuple[str, int]:
        """``(platform, seed)``, checked as a worker checks them.

        The owning worker validates the rest of the body, so any other
        schema error comes from the worker with its full error envelope.
        """
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        # Nesting past the interpreter's recursion limit is a
        # RecursionError, not a JSONDecodeError.
        except (
            UnicodeDecodeError, json.JSONDecodeError, RecursionError
        ) as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from None
        return protocol.parse_calibrate(parsed)

    async def _forward(
        self, path: str, body: bytes
    ) -> tuple[int, "dict | bytes"]:
        try:
            platform, seed = self._routing_key(body)
        except ServiceError as exc:
            return 400, protocol.error_payload(exc, status=400)
        try:
            owners = self.supervisor.shardmap.owners(
                platform, seed, alive=self.supervisor.alive_workers()
            )
        except ClusterError as exc:
            self.metrics.unroutable_total += 1
            return 503, protocol.error_payload(exc, status=503)
        last_error: Exception | None = None
        for i, worker_id in enumerate(owners):
            handle = self.supervisor.handle(worker_id)
            self.metrics.forwards[worker_id] = (
                self.metrics.forwards.get(worker_id, 0) + 1
            )
            try:
                status, raw = await self._pool.request(
                    handle.host,
                    handle.port,
                    "POST",
                    path,
                    body,
                    timeout=FORWARD_TIMEOUT_S,
                )
            except (HttpError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                if i + 1 < len(owners):
                    self.metrics.failovers_total += 1
                    log.warning(
                        "worker %s unreachable for %s (%s); failing over",
                        worker_id,
                        path,
                        exc,
                    )
                continue
            return status, raw
        self.metrics.unroutable_total += 1
        exc = ClusterError(
            f"no replica of {platform}:{seed} is reachable "
            f"(tried {', '.join(owners)}): {last_error}"
        )
        return 503, protocol.error_payload(exc, status=503)
