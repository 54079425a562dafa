"""ServiceClient retry: capped backoff over transient connection failures."""

import json
import socket
import struct
import threading

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient


class FlakyListener:
    """A TCP listener that kills the first ``failures`` connections.

    Killed connections are closed before any HTTP bytes are written —
    the client sees the connection-reset signature of a worker dying
    mid-restart.  Subsequent connections get a real 200 JSON response.
    """

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                self.connections += 1
                if self.connections <= self.failures:
                    # RST, not FIN: reliably ConnectionResetError client-side.
                    conn.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    continue
                conn.recv(65536)
                body = json.dumps({"status": "ok"}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )

    def stop(self) -> None:
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept();
        # shutdown() does, so the join below returns at once.
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(5)
        assert not self._thread.is_alive(), "listener thread did not exit"


@pytest.fixture
def flaky_listener():
    started = []

    def start(failures: int) -> FlakyListener:
        listener = FlakyListener(failures)
        started.append(listener)
        return listener

    yield start
    for listener in started:
        listener.stop()


class TestRetry:
    def test_off_by_default(self, flaky_listener):
        listener = flaky_listener(failures=1)
        client = ServiceClient("127.0.0.1", listener.port)
        with pytest.raises(ServiceError, match="after 1 attempt"):
            client.healthz()
        assert listener.connections == 1

    def test_retries_recover_from_transient_resets(self, flaky_listener):
        listener = flaky_listener(failures=2)
        client = ServiceClient(
            "127.0.0.1", listener.port, retries=3, backoff_s=0.001
        )
        assert client.healthz() == {"status": "ok"}
        assert listener.connections == 3

    def test_budget_exhaustion_raises_with_attempt_count(
        self, flaky_listener
    ):
        listener = flaky_listener(failures=10)
        client = ServiceClient(
            "127.0.0.1", listener.port, retries=2, backoff_s=0.001
        )
        with pytest.raises(ServiceError, match="after 3 attempt"):
            client.healthz()
        assert listener.connections == 3

    def test_connection_refused_is_retried(self, monkeypatch):
        # An unbound port refuses every attempt; count the sleeps.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = ServiceClient("127.0.0.1", port, retries=3, backoff_s=0.05)
        with pytest.raises(ServiceError, match="after 4 attempt"):
            client.healthz()
        assert sleeps == [0.05, 0.1, 0.2]

    def test_backoff_is_capped(self, monkeypatch):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = ServiceClient(
            "127.0.0.1",
            port,
            retries=5,
            backoff_s=0.3,
            backoff_cap_s=0.5,
        )
        with pytest.raises(ServiceError):
            client.healthz()
        assert sleeps == [0.3, 0.5, 0.5, 0.5, 0.5]

    def test_negative_retries_rejected(self):
        with pytest.raises(ServiceError, match="retries"):
            ServiceClient(retries=-1)

    def test_http_errors_are_not_retried(self, server):
        # A structured 4xx answer must surface immediately even with a
        # retry budget: it is an answer, not a transport failure.
        client = server.client(retries=5)
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")
