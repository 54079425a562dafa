"""Load harness: latency stats, shed classification, SLO verdicts."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ClusterError
from repro.cluster.loadgen import (
    LoadReport,
    OverloadTarget,
    PredictWorkload,
    SloTarget,
    run_load,
)


class ScriptedService:
    """An HTTP stub whose answer pattern is scripted per request index."""

    def __init__(self, script):
        #: script(i) -> (status, payload) for the i-th request.
        self._script = script
        self._count = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                with stub._lock:
                    index = stub._count
                    stub._count += 1
                status, payload = stub._script(index)
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        # shutdown() waits for the serve loop's next poll: keep it short.
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.01},
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(5)


OK_PAYLOAD = {"comp_parallel": 1.0, "comm_parallel": 1.0, "comp_alone": 1.0}
SHED_PAYLOAD = {
    "error": {"type": "ServiceError", "message": "shedding", "status": 503}
}
FAIL_PAYLOAD = {
    "error": {"type": "ModelError", "message": "boom", "status": 422}
}


@pytest.fixture
def scripted():
    started = []

    def start(script) -> ScriptedService:
        service = ScriptedService(script)
        started.append(service)
        return service

    yield start
    for service in started:
        service.stop()


class TestRunLoad:
    def test_all_ok_run(self, scripted):
        service = scripted(lambda i: (200, OK_PAYLOAD))
        report = run_load(
            PredictWorkload(port=service.port), total=20, concurrency=4
        )
        assert report.requests == 20
        assert report.ok == 20
        assert report.failed == 0 and report.shed == 0
        assert len(report.latencies_ms) == 20
        assert report.qps > 0
        assert report.latency_ms(50) <= report.latency_ms(99)

    def test_sheds_and_failures_classified_separately(self, scripted):
        def script(i):
            if i % 5 == 0:
                return 503, SHED_PAYLOAD
            if i % 5 == 1:
                return 422, FAIL_PAYLOAD
            return 200, OK_PAYLOAD

        service = scripted(script)
        report = run_load(
            PredictWorkload(port=service.port), total=20, concurrency=2
        )
        assert report.shed == 4
        assert report.failed == 4
        assert report.ok == 12
        assert report.shed_rate == pytest.approx(0.2)
        assert report.error_rate == pytest.approx(0.2)

    def test_unreachable_target_counts_as_failed(self):
        # Grab a free port and leave it unbound.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        report = run_load(
            PredictWorkload(port=port, timeout_s=2), total=4, concurrency=2
        )
        assert report.failed == 4
        assert report.error_rate == 1.0

    def test_validation(self):
        with pytest.raises(ClusterError, match="total"):
            run_load(PredictWorkload(), total=0)
        with pytest.raises(ClusterError, match="concurrency"):
            run_load(PredictWorkload(), total=1, concurrency=0)


class TestReport:
    def test_merge_keeps_wall_clock_semantics(self):
        a = LoadReport(
            requests=10, ok=9, failed=1, shed=0, duration_s=2.0,
            latencies_ms=[1.0] * 10,
        )
        b = LoadReport(
            requests=10, ok=8, failed=0, shed=2, duration_s=3.0,
            latencies_ms=[2.0] * 10,
        )
        a.merge(b)
        assert a.requests == 20 and a.ok == 17
        assert a.duration_s == 3.0  # overlapped streams: max, not sum
        assert a.qps == pytest.approx(20 / 3.0)
        assert len(a.latencies_ms) == 20

    def test_empty_report_is_safe(self):
        report = LoadReport()
        assert report.qps == 0.0
        assert report.error_rate == 0.0
        assert report.latency_ms(99) == 0.0
        assert report.summary()["requests"] == 0

    def test_slo_verdict(self):
        report = LoadReport(
            requests=100, ok=97, failed=1, shed=2, duration_s=1.0,
            latencies_ms=[10.0] * 90 + [500.0] * 10,
        )
        good = report.slo_verdict(
            SloTarget(p99_ms=1000.0, error_budget=0.02, max_shed_rate=0.05)
        )
        assert good["ok"]
        bad = report.slo_verdict(
            SloTarget(p99_ms=50.0, error_budget=0.001, max_shed_rate=0.01)
        )
        assert not bad["ok"]
        assert not bad["checks"]["p99_ms"]["ok"]
        assert not bad["checks"]["error_rate"]["ok"]
        assert not bad["checks"]["shed_rate"]["ok"]

    def test_overload_verdict_requires_shedding(self):
        # A run where back-pressure engaged and nothing failed: passes.
        overloaded = LoadReport(
            requests=100, ok=60, failed=0, shed=40, duration_s=1.0,
            latencies_ms=[5.0] * 100,
        )
        verdict = overloaded.overload_verdict(OverloadTarget())
        assert verdict["ok"]
        assert verdict["checks"]["shed_rate"]["measured"] == 0.4

    def test_overload_verdict_fails_when_nothing_shed(self):
        idle = LoadReport(
            requests=100, ok=100, failed=0, shed=0, duration_s=1.0,
            latencies_ms=[5.0] * 100,
        )
        verdict = idle.overload_verdict(OverloadTarget(min_shed_rate=0.01))
        assert not verdict["ok"]
        assert not verdict["checks"]["shed_rate"]["ok"]
        assert verdict["checks"]["error_rate"]["ok"]

    def test_overload_verdict_fails_on_outright_failures(self):
        melting = LoadReport(
            requests=100, ok=50, failed=10, shed=40, duration_s=1.0,
            latencies_ms=[5.0] * 100,
        )
        verdict = melting.overload_verdict(OverloadTarget())
        assert not verdict["ok"]
        assert not verdict["checks"]["error_rate"]["ok"]
        assert verdict["checks"]["shed_rate"]["ok"]

    def test_summary_is_json_encodable(self):
        report = LoadReport(
            requests=2, ok=2, duration_s=0.5, latencies_ms=[1.0, 2.0]
        )
        json.dumps(report.summary())
        json.dumps(report.slo_verdict(SloTarget()))
        json.dumps(report.overload_verdict(OverloadTarget()))
