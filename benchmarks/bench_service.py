"""Service throughput: batched vs unbatched 64-query streams.

The artefact guarded here is the service PR's claim: answering a
64-query prediction stream through the batched path (one request
carrying the whole stream, answered by one lookup in the model's
tables) beats the unbatched path (64 scalar HTTP round
trips) — i.e. the service's batching layer actually amortizes the
vectorized evaluation core instead of just adding plumbing.

Also reported (untimed assertion-free): the same stream issued by 8
concurrent clients against the coalescing batcher, the deployment shape
the server-side batcher exists for.

A second claim: the same 64-query stream answered straight out of the
model's tables by ``predict_columns`` (the in-process hot path
``/predict`` bulk requests take) is at least 10x the batched HTTP
throughput measured in the same run, and bit-identical to the answers
the service returns over the wire.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from _common import best_of, percentile, timed

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.service.client import ServiceClient
from repro.service.server import ContentionService

PLATFORM = "occigen"
N_QUERIES = 64
N_CONCURRENT_CLIENTS = 8
#: Table lookups are microseconds; repeat the stream so each timed
#: round is long enough for the wall clock to resolve.
KERNEL_REPS = 200


class _ServerThread:
    """A service on its own event-loop thread (as ``repro serve`` runs it)."""

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.service: ContentionService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None

    def start(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=10), "service did not start"
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self.service = ContentionService(port=0)
        await self.service.start()
        self.loop = asyncio.get_running_loop()
        self._ready.set()
        await self.service.run_until_shutdown()

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        ).result(10)
        self._thread.join(10)


def _queries(n_nodes: int) -> list[tuple[int, int, int]]:
    return [
        (i % 14 + 1, i % n_nodes, (i + 1) % n_nodes)
        for i in range(N_QUERIES)
    ]


TIMED_ROUNDS = 3


def collect(recorder, benchmark=None) -> None:
    """The timed stream workload, publishing through one recorder.

    Shared verbatim by the pytest benchmark below (which passes its
    ``benchmark`` fixture for the pedantic rounds) and by ``repro bench
    run`` (the BENCH_service.json trajectory).
    """
    reference = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
    n_nodes = reference.model.n_numa_nodes
    queries = _queries(n_nodes)

    server = _ServerThread().start()
    try:
        client = ServiceClient("127.0.0.1", server.service.port)
        client.calibrate(PLATFORM)  # keep calibration out of the timings

        def unbatched() -> list[dict]:
            return [
                client.predict(PLATFORM, n=n, m_comp=mc, m_comm=mm)
                for n, mc, mm in queries
            ]

        def batched() -> list[dict]:
            return client.predict_many(PLATFORM, queries)

        def coalesced() -> list[dict]:
            chunk = N_QUERIES // N_CONCURRENT_CLIENTS
            with ThreadPoolExecutor(N_CONCURRENT_CLIENTS) as pool:
                parts = pool.map(
                    lambda i: [
                        client.predict(PLATFORM, n=n, m_comp=mc, m_comm=mm)
                        for n, mc, mm in queries[i * chunk:(i + 1) * chunk]
                    ],
                    range(N_CONCURRENT_CLIENTS),
                )
                return [row for part in parts for row in part]

        # The tables the server's bulk path reads from: the same
        # calibration, so identical by construction.
        compiled = reference.model

        def compiled_kernel() -> dict:
            for _ in range(KERNEL_REPS - 1):
                compiled.predict_columns(queries)
            return compiled.predict_columns(queries)

        # Identical answers first: the throughput means nothing otherwise.
        columns = compiled.predict_columns(queries)
        for i, ((n, mc, mm), row) in enumerate(zip(queries, batched())):
            assert row["comp_parallel"] == reference.model.comp_parallel(
                n, mc, mm
            )
            assert row["comm_parallel"] == reference.model.comm_parallel(
                n, mc, mm
            )
            assert row["comp_parallel"] == columns["comp_parallel"][i]
            assert row["comm_parallel"] == columns["comm_parallel"][i]
        assert [r["comp_parallel"] for r in unbatched()] == [
            r["comp_parallel"] for r in batched()
        ]

        # The identity pass above warmed every path; time from here.
        t_unbatched = best_of(unbatched, rounds=TIMED_ROUNDS, warmup=0)
        t_batched = best_of(batched, rounds=TIMED_ROUNDS, warmup=0)
        t_coalesced = best_of(coalesced, rounds=TIMED_ROUNDS, warmup=0)
        t_compiled = (
            best_of(compiled_kernel, rounds=TIMED_ROUNDS, warmup=1)
            / KERNEL_REPS
        )
        latencies_ms = [
            timed(
                lambda q=q: client.predict(
                    PLATFORM, n=q[0], m_comp=q[1], m_comm=q[2]
                )
            ) * 1e3
            for q in queries
        ]

        recorder.metric(
            "unbatched_qps", N_QUERIES / t_unbatched, unit="queries/s",
            direction="higher", band=1.0,
        )
        recorder.metric(
            "batched_qps", N_QUERIES / t_batched, unit="queries/s",
            direction="higher", band=1.0,
        )
        recorder.metric(
            "coalesced_qps", N_QUERIES / t_coalesced, unit="queries/s",
            direction="higher", band=1.0,
        )
        recorder.metric(
            "batched_speedup", t_unbatched / t_batched, unit="x",
            direction="higher", band=1.0,
        )
        recorder.metric(
            # In-process table throughput; wide band — microsecond-scale
            # timings swing hard with host load, the 10x floor below is
            # the real contract.
            "compiled_kernel_qps", N_QUERIES / t_compiled, unit="queries/s",
            direction="higher", band=4.0,
        )
        recorder.metric(
            "compiled_kernel_speedup", t_batched / t_compiled, unit="x",
            direction="higher", band=4.0,
        )
        recorder.metric(
            "predict_p50_ms", percentile(latencies_ms, 50), unit="ms",
            direction="lower", band=1.5,
        )
        recorder.metric(
            # p99 of a 64-sample pass is nearly the max: widest band.
            "predict_p99_ms", percentile(latencies_ms, 99), unit="ms",
            direction="lower", band=2.5,
        )
        recorder.context(
            stream=f"{N_QUERIES} scalar queries",
            concurrent_clients=N_CONCURRENT_CLIENTS,
            timed_rounds=TIMED_ROUNDS,
            kernel_reps=KERNEL_REPS,
            batch_size_distribution=client.metrics()["batching"]["sizes"],
        )
        if benchmark is not None:
            benchmark.pedantic(batched, rounds=5, iterations=1)
    finally:
        server.stop()


def test_batched_stream_beats_unbatched(benchmark):
    from repro.benchtrack import BenchRecorder

    recorder = BenchRecorder()
    collect(recorder, benchmark)
    values = recorder.values()
    assert values["batched_qps"] > values["unbatched_qps"], (
        f"batched stream slower than unbatched: "
        f"{values['batched_qps']:.0f} vs {values['unbatched_qps']:.0f} "
        "queries/s"
    )
    # The compiled-kernel contract: both sides measured in this run, on
    # this host, so the floor is host-independent.
    assert values["compiled_kernel_qps"] >= 10.0 * values["batched_qps"], (
        f"compiled kernel only "
        f"{values['compiled_kernel_qps'] / values['batched_qps']:.1f}x the "
        f"batched HTTP path ({values['compiled_kernel_qps']:.0f} vs "
        f"{values['batched_qps']:.0f} queries/s); want >= 10x"
    )
    benchmark.extra_info.update(
        {
            "stream": f"{N_QUERIES} scalar queries",
            "unbatched_qps": round(values["unbatched_qps"]),
            "batched_qps": round(values["batched_qps"]),
            "coalesced_qps": round(values["coalesced_qps"]),
            "compiled_kernel_qps": round(values["compiled_kernel_qps"]),
            "speedup": round(values["batched_speedup"], 1),
            "compiled_speedup": round(values["compiled_kernel_speedup"], 1),
            "predict_p50_ms": round(values["predict_p50_ms"], 3),
            "predict_p99_ms": round(values["predict_p99_ms"], 3),
        }
    )
