"""End-to-end service tests over real TCP sockets.

Covers the PR's acceptance criteria: (a) N parallel ``predict``
requests for one platform trigger exactly one calibration, (b) batched
scalar queries return bit-identical results to direct
``PlacementModel.predict``, and (c) ``/metrics`` reports consistent
request/hit/batch counters — plus timeouts, load shedding, error
envelopes and graceful shutdown.
"""

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import SweepConfig
from repro.errors import ServiceError
from repro.evaluation import run_platform_experiment
from repro.service.client import ServiceResponseError
from repro.service.registry import ModelEntry, ModelKey, ModelRegistry

from tests.service.conftest import (
    DEEPLY_NESTED,
    HALF_SENT,
    NEGATIVE_CONTENT_LENGTH,
    OVERLONG_LINES,
    exchange,
    keep_alive_post,
    stop_in_flight,
    stop_with_a_reader,
)
from tests.service.test_registry import CountingCalibrator

PLATFORM = "occigen"


class TestRoundTrip:
    def test_healthz(self, server):
        health = server.client().healthz()
        assert health["status"] == "ok"
        assert health["models_cached"] == 0
        assert health["batching"] is True

    def test_calibrate_then_predict_matches_library(self, server):
        client = server.client()
        calibration = client.calibrate(PLATFORM)
        assert calibration["cached"] is False
        assert client.calibrate(PLATFORM)["cached"] is True

        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        assert calibration["local"] == result.model.local.to_dict()
        assert calibration["remote"] == result.model.remote.to_dict()

        served = client.predict(PLATFORM, n=8, m_comp=0, m_comm=1)
        assert served["comp_parallel"] == result.model.comp_parallel(8, 0, 1)
        assert served["comm_parallel"] == result.model.comm_parallel(8, 0, 1)

    def test_predict_grid(self, server):
        client = server.client()
        grid = client.predict_grid(
            PLATFORM, [1, 2, 4], placements=[(0, 0), (0, 1)]
        )
        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        reference = result.model.predict_grid([1, 2, 4], [(0, 0), (0, 1)])
        by_key = {(g["m_comp"], g["m_comm"]): g for g in grid["grid"]}
        assert set(by_key) == set(reference)
        for key, pred in reference.items():
            assert by_key[key]["comp_parallel"] == pred.comp_parallel.tolist()
            assert by_key[key]["comm_parallel"] == pred.comm_parallel.tolist()

    def test_advise(self, server):
        recs = server.client().advise(
            PLATFORM, comp_bytes=1e9, comm_bytes=1e8, top=3
        )["recommendations"]
        assert len(recs) == 3
        assert recs[0]["makespan_s"] <= recs[-1]["makespan_s"]

    def test_advise_victim_matches_library(self, server):
        """Victim mode runs on the simulator: no calibration required."""
        from repro.advisor import advise_victim_placement
        from repro.topology import get_platform

        result = server.client().advise(PLATFORM, victim=True, top=2)
        assert result["victim"] is True
        placements = result["placements"]
        assert len(placements) == 2
        assert (
            placements[0]["degradation"] <= placements[1]["degradation"]
        )
        spec = get_platform(PLATFORM)
        expected = advise_victim_placement(spec.machine, spec.profile, top=2)
        assert placements[0]["m_comm"] == expected[0].m_comm
        assert placements[0]["worst_gbps"] == expected[0].worst_gbps
        assert placements[0]["worst_stressor"] == expected[0].worst_stressor
        # And no calibration was paid for it.
        assert server.client().healthz()["models_cached"] == 0

    def test_advise_victim_rejects_workload_fields(self, server):
        client = server.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request(
                "POST",
                "/advise",
                {"platform": PLATFORM, "victim": True, "comp_bytes": 1.0},
            )
        assert excinfo.value.status == 400
        assert "comp_bytes" in excinfo.value.remote_message

    def test_advise_without_bytes_fails_before_the_wire(self, server):
        with pytest.raises(ServiceError, match="comp_bytes"):
            server.client().advise(PLATFORM)

    def test_error_envelope(self, server):
        client = server.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict(PLATFORM, n=8, m_comp=42, m_comm=0)
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "PlacementError"

        with pytest.raises(ServiceResponseError) as excinfo:
            client.calibrate("not-a-platform")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "TopologyError"

    @pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
    def test_core_count_past_int64_is_a_422(self, server, bulk):
        """JSON allows integer literals of any length; a 400-digit core
        count is answered at once with the PlacementError envelope."""
        query = {"n": 10**400, "m_comp": 0, "m_comm": 0}
        body = (
            {"platform": PLATFORM, "queries": [{**query, "n": 4}, query]}
            if bulk
            else {"platform": PLATFORM, **query}
        )
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/predict", body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 422
        assert payload["error"]["type"] == "PlacementError"
        assert "core count" in payload["error"]["message"]

    def test_unknown_endpoint_and_method(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/predict")
        response = conn.getresponse()
        assert response.status == 405
        conn.close()

    def test_invalid_json_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/predict", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"]["type"] == "ServiceError"
        conn.close()

    @pytest.mark.parametrize(
        "path, body, field",
        [
            (
                "/predict",
                b'{"platform": "henri", "n": Infinity, "m_comp": 0, '
                b'"m_comm": 0}',
                "n",
            ),
            (
                "/advise",
                b'{"platform": "henri", "comp_bytes": NaN, "comm_bytes": 1}',
                "comp_bytes",
            ),
        ],
        ids=["predict-infinity", "advise-nan"],
    )
    def test_non_finite_number_is_a_400(self, server, path, body, field):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "ServiceError"
        assert payload["error"]["status"] == 400
        assert f"field {field!r}" in payload["error"]["message"]


class TestWireDefects:
    """Bytes that once got no reply or a 500 get a 400 envelope."""

    def test_negative_content_length_is_a_400(self, server):
        status, payload = exchange(server.port, NEGATIVE_CONTENT_LENGTH)
        assert status == 400
        assert payload["error"] == {
            "type": "ServiceError",
            "message": "invalid Content-Length",
            "status": 400,
        }

    @pytest.mark.parametrize("data", OVERLONG_LINES.values(), ids=OVERLONG_LINES)
    def test_overlong_line_is_a_400(self, server, data):
        status, payload = exchange(server.port, data)
        assert status == 400
        assert payload["error"] == {
            "type": "ServiceError",
            "message": "request or header line too long",
            "status": 400,
        }

    def test_deeply_nested_json_is_a_400(self, server):
        status, payload = exchange(server.port, DEEPLY_NESTED)
        assert status == 400
        assert payload["error"]["type"] == "ServiceError"
        assert payload["error"]["message"].startswith("invalid JSON body")
        # The server still answers afterwards.
        assert server.client().healthz()["status"] == "ok"


class TestAcceptance:
    def test_concurrent_predicts_single_calibration_and_metrics(
        self, server_factory
    ):
        """Acceptance (a) + (b) + (c) in one concurrent client scenario."""
        calibrator = CountingCalibrator(delay_s=0.05)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry)
        client = server.client()
        n_clients = 12
        queries = [(n % 7 + 1, 0, n % 2) for n in range(n_clients)]

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            results = list(
                pool.map(
                    lambda q: client.predict(
                        "henri", n=q[0], m_comp=q[1], m_comm=q[2]
                    ),
                    queries,
                )
            )

        # (a) single-flight: one calibration despite 12 parallel firsts.
        assert calibrator.calls == 1

        # (b) batched answers are bit-identical to the direct model.
        model = registry._entries[ModelKey("henri", 0)].model
        for (n, mc, mm), served in zip(queries, results):
            assert served["comp_parallel"] == model.comp_parallel(n, mc, mm)
            assert served["comm_parallel"] == model.comm_parallel(n, mc, mm)
            assert served["comp_alone"] == model.comp_alone(n, mc)

        # (c) /metrics is consistent with what we just did.
        metrics = client.metrics()
        predict_requests = [
            row
            for row in metrics["requests"]["by_endpoint"]
            if row["endpoint"] == "predict"
        ]
        assert sum(r["count"] for r in predict_requests) == n_clients
        assert all(r["status"] == 200 for r in predict_requests)
        registry_stats = metrics["registry"]
        assert registry_stats["calibrations"] == 1
        assert registry_stats["misses"] == 1
        # Every other first request either joined the in-flight
        # calibration or hit the cache afterwards.
        assert (
            registry_stats["hits"] + registry_stats["waits"]
            == n_clients - 1
        )
        batching = metrics["batching"]
        assert batching["queries"] == n_clients
        assert batching["batches"] <= n_clients
        assert (
            sum(int(s) * c for s, c in batching["sizes"].items())
            == batching["queries"]
        )
        latency = metrics["latency"]["predict"]
        assert latency["count"] == n_clients

    def test_batched_bulk_equals_direct_model(self, server):
        client = server.client()
        queries = [(n, mc, mm) for n in (1, 5, 9) for mc in (0, 1)
                   for mm in (0, 1)]
        served = client.predict_many(PLATFORM, queries)
        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        for (n, mc, mm), row in zip(queries, served):
            assert row["comp_parallel"] == result.model.comp_parallel(n, mc, mm)
            assert row["comm_parallel"] == result.model.comm_parallel(n, mc, mm)


class TestOperational:
    def test_request_timeout_maps_to_504(self, server_factory):
        calibrator = CountingCalibrator(delay_s=2.0)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry, request_timeout_s=0.2)
        try:
            with pytest.raises(ServiceResponseError) as excinfo:
                server.client().calibrate("henri")
            assert excinfo.value.status == 504
            metrics = server.client().metrics()
            assert metrics["requests"]["timeouts"] == 1
        finally:
            # The timed-out calibration still occupies an executor
            # thread; end it so the server stops promptly.
            calibrator.release()

    def test_concurrency_limit_sheds_load(self, server_factory):
        calibrator = CountingCalibrator(delay_s=0.8)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry, max_concurrency=1)
        client = server.client()

        statuses = []

        def slow_calibrate():
            try:
                client.calibrate("henri")
                statuses.append(200)
            except ServiceResponseError as exc:
                statuses.append(exc.status)

        first = threading.Thread(target=slow_calibrate)
        first.start()
        time.sleep(0.3)  # let the slow request occupy the only slot
        with pytest.raises(ServiceResponseError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        first.join(10)
        assert statuses == [200]
        metrics = server.client().metrics()
        assert metrics["requests"]["rejected"] == 1

    def test_graceful_shutdown_drains_in_flight(self, server_factory):
        calibrator = CountingCalibrator(delay_s=0.6)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry)
        client = server.client()

        outcome = {}

        def slow_request():
            try:
                outcome["result"] = client.calibrate("henri")
            except ServiceError as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.2)  # request is now in flight
        server.stop()  # graceful: must drain, not sever
        worker.join(10)
        assert "error" not in outcome
        assert outcome["result"]["platform"] == "henri"

        # The socket is actually closed afterwards.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    @pytest.mark.parametrize(
        "sent", [b"", HALF_SENT], ids=["idle", "half-sent"]
    )
    def test_shutdown_closes_a_reading_connection_at_once(
        self, server_factory, sent
    ):
        """Nothing is in flight on a connection that has not sent a
        whole request: shutdown closes it instead of draining it."""
        server = server_factory()
        elapsed, closed = stop_with_a_reader(server, server.service, sent)
        assert elapsed < 1.0
        assert closed

    def test_shutdown_answers_in_flight_keep_alive_then_closes(
        self, server_factory
    ):
        registry = ModelRegistry(calibrator=CountingCalibrator(delay_s=0.6))
        server = server_factory(registry=registry)
        elapsed, head, payload = stop_in_flight(
            server, keep_alive_post("/calibrate", {"platform": PLATFORM})
        )
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert payload["platform"] == PLATFORM
        assert elapsed < 1.0

    def test_cli_query_roundtrip(self, server, capsys):
        """`python -m repro query ...` drives a live server end to end."""
        from repro.cli import main

        remote = ["--port", str(server.port)]
        assert main(["query", "healthz"] + remote) == 0
        assert '"status": "ok"' in capsys.readouterr().out

        assert main(["query", "calibrate", PLATFORM] + remote) == 0
        assert '"b_comm_seq"' in capsys.readouterr().out

        assert main(
            ["query", "predict", PLATFORM, "-n", "8", "--comp", "0",
             "--comm", "1"] + remote
        ) == 0
        assert "predicted computation bandwidth" in capsys.readouterr().out

        assert main(
            ["query", "advise", PLATFORM, "--comp-bytes", "1e9",
             "--comm-bytes", "1e8", "--top", "2"] + remote
        ) == 0
        assert "Top 2 configurations" in capsys.readouterr().out

        assert main(
            ["query", "advise", PLATFORM, "--victim", "--top", "1"] + remote
        ) == 0
        out = capsys.readouterr().out
        assert f"Victim placements for {PLATFORM}" in out
        assert "worst case" in out

        assert main(
            ["query", "advise", PLATFORM, "--victim", "--comp-bytes", "1"]
            + remote
        ) == 11  # rejected client-side as a ServiceError
        assert "do not apply" in capsys.readouterr().err

        assert main(["query", "metrics"] + remote) == 0
        assert '"registry"' in capsys.readouterr().out

    def test_cli_query_error_exit_code(self, server, capsys):
        from repro.cli import main

        code = main(
            ["query", "predict", PLATFORM, "-n", "8", "--comp", "42",
             "--comm", "0", "--port", str(server.port)]
        )
        assert code == 11  # ServiceResponseError is a ServiceError
        assert "PlacementError" in capsys.readouterr().err

    def test_batching_disabled_still_serves(self, server_factory):
        server = server_factory(batching=False)
        client = server.client()
        assert client.healthz()["batching"] is False
        served = client.predict(PLATFORM, n=4, m_comp=0, m_comm=0)
        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        assert served["comp_parallel"] == result.model.comp_parallel(4, 0, 0)
        assert client.metrics()["batching"]["batches"] == 0
