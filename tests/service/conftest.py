"""Fixtures for the prediction-service tests.

The server runs on its own event loop in a background thread — exactly
how ``python -m repro serve`` deploys it — while the tests drive it
with the blocking client over real TCP sockets.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ContentionService


class ServerThread:
    """A ContentionService running on a dedicated event-loop thread."""

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.service: ContentionService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("service did not start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        service = ContentionService(port=0, **self._kwargs)
        await service.start()
        self.service = service
        self.loop = asyncio.get_running_loop()
        self.port = service.port
        self._ready.set()
        await service.run_until_shutdown()

    def run(self, coro, timeout: float = 30.0):
        """Run a coroutine on the server's loop from the test thread."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        if self.loop is None or not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        ).result(timeout)
        self._thread.join(timeout)

    def client(self, **kwargs) -> ServiceClient:
        assert self.port is not None
        return ServiceClient("127.0.0.1", self.port, **kwargs)


def exchange(port: int, data: bytes) -> tuple[int, dict]:
    """Send raw bytes, read the reply up to the close -> (status, body).

    A server that answers before reading all of ``data`` closes with
    unread input, which resets the connection: what arrived before the
    reset is the reply.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        try:
            sock.sendall(data)
        except ConnectionError:
            pass
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), f"no reply, got {head[:80]!r}"
    return int(head.split()[1]), json.loads(body)


#: Wire inputs a server must refuse with a 400 envelope.
NEGATIVE_CONTENT_LENGTH = (
    b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}"
)
OVERLONG_LINES = {
    "request-line": b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n",
    "header-line": (
        b"POST /predict HTTP/1.1\r\nX-Pad: " + b"a" * 200_000 + b"\r\n\r\n"
    ),
}
#: A request cut off inside its headers: the server is part-way through
#: reading it.
HALF_SENT = b"POST /predict HTTP/1.1\r\nContent-Le"


def stop_with_a_reader(thread, front, sent: bytes) -> tuple[float, bool]:
    """Stop ``thread`` while a client that sent only ``sent`` is
    connected to ``front`` (its service or router) -> (seconds the stop
    took, whether the client then saw its connection closed)."""
    with socket.create_connection(("127.0.0.1", thread.port), 5) as sock:
        sock.sendall(sent)
        deadline = time.monotonic() + 5
        while not front._connections:
            assert time.monotonic() < deadline, "connection never accepted"
            time.sleep(0.005)
        started = time.perf_counter()
        thread.stop()
        elapsed = time.perf_counter() - started
        sock.settimeout(1)
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
    return elapsed, closed


def keep_alive_post(path: str, payload: dict) -> bytes:
    """One POST that asks to keep its connection open."""
    body = json.dumps(payload).encode()
    return (
        b"POST %s HTTP/1.1\r\nConnection: keep-alive\r\n"
        b"Content-Length: %d\r\n\r\n" % (path.encode(), len(body))
    ) + body


def stop_in_flight(thread, data: bytes) -> tuple[float, bytes, dict]:
    """Stop ``thread`` 0.2 s after sending ``data``, a request it takes
    longer than that to answer -> (seconds the stop took, the reply's
    head, its JSON body), read up to the close."""
    with socket.create_connection(("127.0.0.1", thread.port), 10) as sock:
        sock.sendall(data)
        time.sleep(0.2)  # the request is now in flight
        started = time.perf_counter()
        thread.stop()
        elapsed = time.perf_counter() - started
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return elapsed, head, json.loads(body)


def stop_past_the_drain(port: int, data: bytes, stop) -> tuple[float, bytes]:
    """Call ``stop`` 0.2 s after sending ``data``, a request that outlasts
    the drain timeout -> (seconds ``stop`` took, every byte the client
    read up to the close)."""
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        sock.sendall(data)
        time.sleep(0.2)  # the request is now in flight
        started = time.perf_counter()
        stop()
        elapsed = time.perf_counter() - started
        sock.settimeout(5)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return elapsed, reply


DEEPLY_NESTED = (
    b"POST /predict HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
    + b"[" * 100_000
)


@pytest.fixture
def server_factory():
    """Start servers with custom options; all stopped at teardown."""
    started: list[ServerThread] = []

    def start(**kwargs) -> ServerThread:
        server = ServerThread(**kwargs).__enter__()
        started.append(server)
        return server

    yield start
    for server in started:
        server.stop()


@pytest.fixture
def server(server_factory):
    """One default server instance."""
    return server_factory()
