"""repro.cluster — the sharded multi-worker serving tier.

Scale-out layer over the single-process service (docs/CLUSTER.md):

* :class:`ShardMap` — deterministic consistent-hash ring assigning
  each ``(platform, seed)`` model to ``replication`` workers;
* :class:`Supervisor` — forks and supervises N worker processes
  (``python -m repro serve``), all sharing one artifact store for warm
  starts and warm restarts;
* :class:`ClusterRouter` — the single front door: shard routing,
  replica failover, self-healing health loop, fleet-wide
  ``/healthz`` / ``/shards`` / ``/metrics``;
* :class:`WorkerPool` — the router's keep-alive worker streams, one
  TCP handshake amortised over many forwards;
* :func:`run_load` / :class:`PredictWorkload` / :class:`SloTarget` /
  :class:`OverloadTarget` — the load harness (p50/p99, error budget,
  shed rate; overload runs grade shedding itself) behind
  ``repro cluster loadgen`` and ``benchmarks/bench_cluster.py``.
"""

from __future__ import annotations

from repro.cluster.loadgen import (
    LoadReport,
    OverloadTarget,
    PredictWorkload,
    SloTarget,
    run_load,
)
from repro.cluster.pool import WorkerPool
from repro.cluster.router import ClusterRouter, RouterMetrics
from repro.cluster.shardmap import ShardMap
from repro.cluster.supervisor import Supervisor, WorkerHandle, WorkerStatus

__all__ = [
    "ClusterRouter",
    "LoadReport",
    "OverloadTarget",
    "PredictWorkload",
    "RouterMetrics",
    "ShardMap",
    "SloTarget",
    "Supervisor",
    "WorkerHandle",
    "WorkerPool",
    "WorkerStatus",
    "run_load",
]
