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

A third: a 10k-row bulk ``/predict``, sent pre-encoded over a raw
socket, costs at most ``BULK_KERNEL_FACTOR`` times ``predict_columns``
on the same queries, measured in the same run.  Everything but the
kernel (decode, parse, encode, the socket) is the service's own cost.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from _common import best_of, percentile, timed

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.service.client import ServiceClient
from repro.service.http11 import encode_request
from repro.service.server import ContentionService

PLATFORM = "occigen"
N_QUERIES = 64
N_CONCURRENT_CLIENTS = 8
#: Table lookups are microseconds; repeat the stream so each timed
#: round is long enough for the wall clock to resolve.
KERNEL_REPS = 200
#: Rows of the timed bulk request, as the e2e ``bulk-hol`` workload
#: sends them.
BULK_ROWS = 10_000
#: A bulk round trip may cost at most this many times the kernel on
#: its queries.  Over five runs on a 2-vCPU VM the ratio read 29-32x
#: with a per-query parse and a whole-body ``json.dumps``, and 6-8x
#: with the column-wise parse and the per-distinct-row encode.  Parsing
#: into one int64 array and grouping rows by sorted bit patterns took
#: it from a median of 6.5x (5.9-8.0x) to 5.5x (4.4-8.1x) over 5-6 runs
#: per side on a loaded 2-vCPU VM; the kernel is still timed on tuples.
#: Reading the bulk body without ``json.loads``
#: (``protocol.read_bulk_predict``) took it from a median of 5.4x
#: (4.3-8.9x) to 2.7x (2.5-3.4x) over 6 alternating runs per side on a
#: 2-vCPU VM.
BULK_KERNEL_FACTOR = 15.0


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


def _bulk_queries(cores: int, n_nodes: int) -> list[tuple[int, int, int]]:
    rng = random.Random(0)
    return [
        (rng.randint(1, cores), rng.randrange(n_nodes), rng.randrange(n_nodes))
        for _ in range(BULK_ROWS)
    ]


def _exchange(port: int, wire: bytes) -> bytes:
    """Send one request on a fresh socket and read the whole response;
    the server closes the connection after it."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(wire)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


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
    bulk = _bulk_queries(reference.platform.machine.cores_per_socket, n_nodes)
    bulk_wire = encode_request(
        "POST",
        "/predict",
        json.dumps(
            {
                "platform": PLATFORM,
                "queries": [
                    {"n": n, "m_comp": mc, "m_comm": mm} for n, mc, mm in bulk
                ],
            }
        ).encode(),
    )

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
        port = server.service.port
        head, _, body = _exchange(port, bulk_wire).partition(b"\r\n\r\n")
        assert head.split()[1] == b"200", head
        rows = json.loads(body)["results"]
        for name, column in compiled.predict_columns(bulk).items():
            assert [row[name] for row in rows] == column.tolist(), name

        # The identity pass above warmed every path; time from here.
        t_unbatched = best_of(unbatched, rounds=TIMED_ROUNDS, warmup=0)
        t_batched = best_of(batched, rounds=TIMED_ROUNDS, warmup=0)
        t_coalesced = best_of(coalesced, rounds=TIMED_ROUNDS, warmup=0)
        t_compiled = (
            best_of(compiled_kernel, rounds=TIMED_ROUNDS, warmup=1)
            / KERNEL_REPS
        )
        t_bulk = best_of(
            lambda: _exchange(port, bulk_wire), rounds=TIMED_ROUNDS, warmup=0
        )
        t_bulk_kernel = best_of(
            lambda: compiled.predict_columns(bulk), rounds=TIMED_ROUNDS
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
            "bulk_roundtrip_ms", t_bulk * 1e3, unit="ms",
            direction="lower", band=1.5,
        )
        recorder.metric(
            "bulk_kernel_ratio", t_bulk / t_bulk_kernel, unit="x",
            direction="lower", band=1.0,
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
            bulk_rows=BULK_ROWS,
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
    # The bulk contract: what the service adds around the kernel, on
    # one 10k-row request.
    assert values["bulk_kernel_ratio"] <= BULK_KERNEL_FACTOR, (
        f"a {BULK_ROWS}-row bulk round trip costs "
        f"{values['bulk_kernel_ratio']:.1f}x predict_columns on its queries "
        f"({values['bulk_roundtrip_ms']:.1f} ms); want <= "
        f"{BULK_KERNEL_FACTOR:g}x"
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
            "bulk_roundtrip_ms": round(values["bulk_roundtrip_ms"], 2),
            "bulk_kernel_ratio": round(values["bulk_kernel_ratio"], 1),
        }
    )
