"""The asyncio HTTP/1.1 front end that the service and the router share.

:class:`HttpFrontEnd` owns what a server needs to answer HTTP on a
socket; a subclass brings its routes and says how it answers a routed
request, which metrics it keeps and what else it stops on shutdown.

* **keep-alive** — a connection serves requests until the client closes
  it or stops sending ``Connection: keep-alive``, or shutdown begins;
* **routing** — requests are dispatched from a ``(method, path)`` table.
  An unknown path is a 404 and a known path with another method a 405.
  Every unknown path is counted under one metrics label, ``_unknown``,
  so scanners cannot grow the metric cardinality without bound;
* **prompt shutdown** — :meth:`HttpFrontEnd.shutdown` stops accepting,
  closes at once every connection that is waiting for a request or
  part-way through reading one, and waits up to :data:`DRAIN_TIMEOUT_S`
  for the requests in flight.  Each of those is answered with
  ``Connection: close``; one still running when the time is up is
  cancelled, and its connection closes with no response.

A subclass reads and writes through :meth:`HttpFrontEnd._read` and
:meth:`HttpFrontEnd._write`, which call its own module's
``read_request`` and ``write_response`` at call time: the e2e
benchmark (``benchmarks/e2e/layers.py``) times each server's layers by
replacing those module attributes.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Awaitable, Callable

from repro.errors import ServiceError
from repro.service import protocol
from repro.service.http11 import HttpError

__all__ = ["DRAIN_TIMEOUT_S", "HttpFrontEnd"]

log = logging.getLogger("repro.service")

#: Seconds shutdown waits for the requests in flight before it cancels
#: them.
DRAIN_TIMEOUT_S = 10.0


class HttpFrontEnd:
    """One listener, its keep-alive connections and its route table.

    ``routes`` maps ``(method, path)`` to a handler that only the
    subclass's :meth:`_answer` calls.
    """

    def __init__(
        self, routes: dict[tuple[str, str], Callable], *, host: str, port: int
    ) -> None:
        self._host = host
        self._port = port
        self._routes = routes
        self._known_paths = frozenset(path for _, path in routes)
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        #: Connection tasks waiting for, or reading, a request: nothing
        #: of theirs is in flight, so shutdown cancels them at once.
        self._reading: set[asyncio.Task] = set()
        self._closing = False
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()

    # ---- what a subclass supplies ----------------------------------------------

    def _read(self, reader: asyncio.StreamReader) -> Awaitable[tuple]:
        """``read_request(reader)`` of the subclass's module."""
        raise NotImplementedError

    def _write(
        self, writer: asyncio.StreamWriter, status: int, payload: dict | bytes,
        *, keep_alive: bool = False,
    ) -> Awaitable[None]:
        """``write_response(...)`` of the subclass's module."""
        raise NotImplementedError

    async def _answer(
        self, handler: Callable, endpoint: str, method: str, path: str,
        body: bytes,
    ) -> tuple[int, dict | bytes]:
        """``(status, payload)`` of a request its route names."""
        raise NotImplementedError

    def _observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Count one answered request."""
        raise NotImplementedError

    async def _before_drain(self) -> None:
        """Stop the subclass's own work once shutdown begins."""

    async def _after_close(self) -> None:
        """Release what the subclass holds once every connection closed."""

    # ---- lifecycle -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise ServiceError(f"{type(self).__name__} is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        log.info(
            "%s listening on %s:%d", type(self).__name__, self._host, self.port
        )

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`shutdown` is called (from any task)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        """Signal :meth:`run_until_shutdown` to exit (signal-handler safe)."""
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Stop accepting, close idle connections, drain in-flight
        requests for at most :data:`DRAIN_TIMEOUT_S`, close sockets."""
        self._closing = True
        await self._before_drain()
        if self._server is not None:
            self._server.close()
        for task in self._reading:
            task.cancel()
        pending = {t for t in self._connections if not t.done()}
        if pending:
            _, stragglers = await asyncio.wait(
                pending, timeout=DRAIN_TIMEOUT_S
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self._server is not None:
            # From Python 3.12.1 this also waits for every open
            # connection, hence last.
            await self._server.wait_closed()
        await self._after_close()
        self._shutdown.set()

    # ---- connection handling ---------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            # Serve requests until the client closes or stops asking for
            # keep-alive, or shutdown begins; one-shot clients exit the
            # loop after one turn.
            while not self._closing:
                self._reading.add(task)
                try:
                    method, path, body, keep_alive = await self._read(reader)
                except HttpError as exc:
                    await self._write(
                        writer,
                        exc.status,
                        protocol.error_payload(
                            ServiceError(str(exc)), status=exc.status
                        ),
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away mid-request or between requests
                finally:
                    self._reading.discard(task)
                await self._dispatch(writer, method, path, body, keep_alive)
                if not keep_alive:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        keep_alive: bool,
    ) -> None:
        """Answer one request.

        A coroutine of its own, so that a bulk answer (megabytes) is
        freed as soon as it is written, while the loop still holds the
        body.  Inlined into the loop, a 10k-row bulk request cost the
        server 16-18 % more page faults (glibc, Python 3.11), and
        ``bulk-hol`` served about 4 % fewer rows per second.
        """
        started = time.perf_counter()
        handler = self._routes.get((method, path))
        if handler is not None:
            endpoint = path.lstrip("/")
            status, payload = await self._answer(
                handler, endpoint, method, path, body
            )
        elif path in self._known_paths:
            endpoint = path.lstrip("/")
            status, payload = 405, protocol.error_payload(
                ServiceError(f"method {method} not allowed on {path}"),
                status=405,
            )
        else:
            endpoint = "_unknown"
            status, payload = 404, protocol.error_payload(
                ServiceError(f"unknown endpoint {path}"), status=404
            )
        self._observe(endpoint, status, time.perf_counter() - started)
        # A request that was in flight when shutdown began is answered,
        # and then its connection closes.
        await self._write(
            writer,
            status,
            payload,
            keep_alive=keep_alive and not self._closing,
        )
