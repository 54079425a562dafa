"""ClusterRouter: shard routing, replica failover, fleet introspection."""

import json
import random
import socket
import time

import pytest

from repro.cluster.shardmap import ShardMap
from repro.service.client import ServiceResponseError
from repro.service.http11 import MAX_BODY_BYTES, MAX_RESPONSE_BYTES
from repro.topology import get_platform

from tests.cluster.conftest import FakeSupervisor, RouterThread
from tests.service.conftest import (
    DEEPLY_NESTED,
    HALF_SENT,
    NEGATIVE_CONTENT_LENGTH,
    OVERLONG_LINES,
    ServerThread,
    exchange,
    keep_alive_post,
    stop_in_flight,
    stop_with_a_reader,
)
from tests.service.test_bulk_parity import post


class TestRouting:
    def test_requests_reach_the_primary_owner(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        thread = router_factory()
        client = thread.client()
        for seed in range(8):
            result = client.predict(
                "occigen", n=4, m_comp=0, m_comm=0, seed=seed
            )
            assert result["worker"] == supervisor.shardmap.primary(
                "occigen", seed
            )

    def test_worker_response_is_relayed_verbatim(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        thread = router_factory()
        client = thread.client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=1, seed=3)
        assert result["echo"]["n"] == 4
        assert result["echo"]["platform"] == "occigen"

    def test_worker_error_envelope_passes_through(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        primary = supervisor.shardmap.primary("occigen", 0)
        workers[primary].responses["/predict"] = (
            422,
            {
                "error": {
                    "type": "PlacementError",
                    "message": "bad placement",
                    "status": 422,
                }
            },
        )
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        # An HTTP-level worker error is an answer: no failover happened.
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "PlacementError"

    def test_missing_platform_rejected_at_the_router(
        self, stub_fleet, router_factory
    ):
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("POST", "/predict", {"n": 4})
        assert excinfo.value.status == 400

    def test_unknown_path_and_bad_method(self, stub_fleet, router_factory):
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_unknown_paths_share_one_metrics_label(
        self, stub_fleet, router_factory
    ):
        """Probe paths must not grow the request counter without bound."""
        client = router_factory().client()
        for path in ("/", "/nope", "/scan/1", "/scan/2"):
            with pytest.raises(ServiceResponseError):
                client._request("GET", path)
        client.healthz()
        labels = {
            row["endpoint"]: row["count"]
            for row in client.metrics()["router"]["requests"]["by_endpoint"]
        }
        assert labels == {"_unknown": 4, "healthz": 1}


class TestFailover:
    def test_dead_primary_fails_over_to_replica(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        workers[owners[0]].stop()
        thread = router_factory()
        client = thread.client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert result["worker"] == owners[1]
        assert thread.router.metrics.failovers_total >= 1

    def test_all_replicas_dead_yields_503(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        for worker_id in owners:
            workers[worker_id].stop()
        thread = router_factory()
        client = thread.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "ClusterError"
        assert thread.router.metrics.unroutable_total == 1

    def test_known_dead_worker_is_tried_last(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        supervisor.down.add(owners[0])  # poll says dead; routing reorders
        client = router_factory().client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert result["worker"] == owners[1]
        # The reordered walk never touched the dead primary.
        assert all(
            path != "/predict"
            for _, path, _ in workers[owners[0]].requests
        )


class TestHealthLoop:
    def test_dead_worker_is_respawned(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        thread = router_factory(health_interval_s=0.05)
        supervisor.down.add("w1")
        deadline = time.monotonic() + 5
        while "w1" not in supervisor.respawned:
            assert time.monotonic() < deadline, "health loop never respawned"
            time.sleep(0.02)
        assert thread.router.metrics.worker_restarts >= 1


class TestIntrospection:
    def test_healthz_summarizes_the_fleet(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        client = router_factory().client()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 3
        assert {w["worker_id"] for w in health["workers"]} == {
            "w0",
            "w1",
            "w2",
        }
        supervisor.down.add("w2")
        assert client.healthz()["status"] == "degraded"

    def test_shards_table_rebuilds_identically(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        client = router_factory().client()
        table = client._request("GET", "/shards")
        rebuilt = ShardMap.from_spec(table["shardmap"])
        for seed in range(32):
            assert rebuilt.owners("henri", seed) == supervisor.shardmap.owners(
                "henri", seed
            )
        assert table["workers"]["w0"]["port"] == workers["w0"].port

    def test_metrics_scrapes_and_merges_workers(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        for i, stub in enumerate(workers.values()):
            stub.responses["/metrics"] = (
                200,
                {
                    "tracing": {
                        "enabled": True,
                        "spans": 2,
                        "by_name": {
                            "service.request": {"count": 2, "total_ms": 1.5}
                        },
                        "counters": {"batch.coalesced": 1},
                    }
                },
            )
        client = router_factory().client()
        client.healthz()  # one observed request before the snapshot
        snapshot = client.metrics()
        assert set(snapshot["workers"]) == {"w0", "w1", "w2"}
        tracing = snapshot["tracing"]
        assert tracing["workers_enabled"] == 3
        assert tracing["by_name"]["service.request"]["count"] == 6
        assert tracing["counters"]["batch.coalesced"] == 3
        assert snapshot["router"]["requests"]["total"] >= 1
        # Pool health rides along in the router block.  The stub
        # workers are plain HTTP/1.0 closers, so nothing is reusable —
        # but every scrape went through the pool.
        pool = snapshot["router"]["connection_pool"]
        assert pool["opens"] >= 3
        assert set(pool) == {
            "idle", "opens", "reuses", "discards", "evictions",
            "stale_retries",
        }


class TestBodyCaps:
    def test_bulk_answer_past_the_request_cap_is_relayed(self):
        """A 10k-row bulk fits the 1 MiB request cap but its answer
        does not: the router relays the worker's own bytes."""
        rng = random.Random(0)
        nodes = get_platform("occigen").machine.n_numa_nodes
        queries = [
            {"n": rng.randint(0, 300), "m_comp": rng.randrange(nodes),
             "m_comm": rng.randrange(nodes)}
            for _ in range(10_000)
        ]
        body = {"platform": "occigen", "queries": queries}
        with ServerThread() as worker:
            supervisor = FakeSupervisor({"w0": worker}, replication=1)
            with RouterThread(supervisor, health_interval_s=0) as router:
                status, direct = post(worker.port, body)
                assert status == 200
                assert len(json.dumps(body)) <= MAX_BODY_BYTES < len(direct)
                assert post(router.port, body) == (200, direct)

    def test_reply_past_the_response_cap_is_a_503(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        for stub in workers.values():
            stub.responses["/predict"] = (200, {"pad": "x" * MAX_RESPONSE_BYTES})
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "ClusterError"
        assert "response body too large" in str(excinfo.value)

    def test_request_past_the_request_cap_is_a_413(self, router_factory):
        """The router and a worker both refuse it before reading it."""
        head = (
            "POST /predict HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        with ServerThread() as worker:
            for port in (router_factory().port, worker.port):
                with socket.create_connection(("127.0.0.1", port), 10) as sock:
                    sock.sendall(head)
                    reply = sock.makefile("rb").read()
                reply_head, _, payload = reply.partition(b"\r\n\r\n")
                assert reply_head.split()[1] == b"413"
                assert json.loads(payload)["error"] == {
                    "type": "ServiceError",
                    "message": "request body too large",
                    "status": 413,
                }


class TestWireDefects:
    """Bytes that once dropped the router's connection get a 400."""

    def test_negative_content_length_is_a_400(self, router_factory):
        status, payload = exchange(
            router_factory().port, NEGATIVE_CONTENT_LENGTH
        )
        assert status == 400
        assert payload["error"] == {
            "type": "ServiceError",
            "message": "invalid Content-Length",
            "status": 400,
        }

    @pytest.mark.parametrize("data", OVERLONG_LINES.values(), ids=OVERLONG_LINES)
    def test_overlong_line_is_a_400(self, router_factory, data):
        status, payload = exchange(router_factory().port, data)
        assert status == 400
        assert payload["error"] == {
            "type": "ServiceError",
            "message": "request or header line too long",
            "status": 400,
        }

    def test_worker_negative_content_length_is_a_503(
        self, stub_fleet, router_factory
    ):
        """A worker's malformed reply counts as an unreachable replica:
        once none answers, the client gets the router's 503."""
        _, workers = stub_fleet
        for stub in workers.values():
            stub.raw_replies["/predict"] = (
                b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"
            )
        router = router_factory()
        status, raw = post(
            router.port,
            {"platform": "occigen", "n": 4, "m_comp": 0, "m_comm": 0},
        )
        error = json.loads(raw)["error"]
        assert (status, error["status"], error["type"]) == (
            503, 503, "ClusterError",
        )
        assert "invalid Content-Length" in error["message"]
        # Both replicas were tried, and the router still answers.
        assert sum(bool(stub.requests) for stub in workers.values()) == 2
        assert router.client().healthz()["workers_alive"] == len(workers)

    def test_deeply_nested_json_is_a_400(self, stub_fleet, router_factory):
        _, workers = stub_fleet
        router = router_factory()
        status, payload = exchange(router.port, DEEPLY_NESTED)
        assert status == 400
        assert payload["error"]["type"] == "ServiceError"
        assert payload["error"]["message"].startswith("invalid JSON body")
        # Refused at the router: no worker saw it, and the router still
        # answers.
        assert all(not stub.requests for stub in workers.values())
        assert router.client().healthz()["workers_alive"] == len(workers)


class TestShutdown:
    @pytest.mark.parametrize(
        "sent", [b"", HALF_SENT], ids=["idle", "half-sent"]
    )
    def test_shutdown_closes_a_reading_connection_at_once(
        self, router_factory, sent
    ):
        """Nothing is in flight on a connection that has not sent a
        whole request: shutdown closes it instead of draining it."""
        thread = router_factory()
        elapsed, closed = stop_with_a_reader(thread, thread.router, sent)
        assert elapsed < 1.0
        assert closed

    def test_shutdown_answers_in_flight_keep_alive_then_closes(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        for stub in workers.values():
            stub.delay_s = 0.5
        thread = router_factory()
        elapsed, head, payload = stop_in_flight(
            thread, keep_alive_post("/predict", {"platform": "occigen", "n": 4})
        )
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert payload["echo"]["n"] == 4
        assert elapsed < 1.0
