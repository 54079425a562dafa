"""Keep-alive connection pool between the router and its workers.

Every forwarded request used to pay a full TCP open/close round trip on
top of the worker's answer — pure overhead once the model's table
lookups made the answer itself nearly free.  :class:`WorkerPool` keeps a
small per-worker stash of idle keep-alive streams: a forward borrows
one (or opens a fresh connection), runs exactly one HTTP exchange with
``Connection: keep-alive``, and parks the stream again when the worker
agreed to keep it open.

Failure semantics are the router's, not the pool's: any transport or
framing error surfaces to the caller (who fails over to a replica), and
the broken stream is dropped.  The one wrinkle a pool adds — a parked
stream whose worker died or restarted while it idled — is absorbed
here: an exchange that fails *on a reused stream before reading a
status line* is retried once on a freshly opened connection, so worker
restarts never surface as spurious failovers.

The pool is single-event-loop state (the router owns one); it needs no
locks because checkout/park never yields between touching the idle
list.  Counters (opens, reuses, discards, evictions, stale retries)
feed the ``connection_pool`` block of ``GET /metrics``.
"""

from __future__ import annotations

import asyncio

from repro.service.http11 import (
    HttpError,
    encode_request,
    read_response,
)

__all__ = ["WorkerPool"]

#: Transport/framing failures that invalidate the stream they happened on.
_EXCHANGE_ERRORS = (HttpError, OSError, asyncio.IncompleteReadError)


class WorkerPool:
    """Per-worker keep-alive streams with single-exchange checkout."""

    def __init__(self, *, max_idle_per_worker: int = 8) -> None:
        self._max_idle = max_idle_per_worker
        self._idle: dict[
            tuple[str, int],
            list[tuple[asyncio.StreamReader, asyncio.StreamWriter]],
        ] = {}
        self._closed = False
        #: Fresh TCP connections opened.
        self.opens = 0
        #: Exchanges served on a parked stream (saved connection setups).
        self.reuses = 0
        #: Streams dropped after an error or a server-side close.
        self.discards = 0
        #: Idle streams closed for capacity or pool shutdown.
        self.evictions = 0
        #: Reused streams found dead and retried on a fresh connection.
        self.stale_retries = 0

    # ---- the one public verb -----------------------------------------------------

    async def request(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        timeout: float = 30.0,
    ) -> tuple[int, bytes]:
        """One pooled exchange -> ``(status, raw body)``.

        Connection-level failures raise their concrete ``OSError``
        subclasses (``ConnectionRefusedError``,
        ``ConnectionResetError``…) and an expired ``timeout`` raises
        ``asyncio.TimeoutError``, so a caller can tell a dead peer (the
        router's failover trigger) from an HTTP-level error response,
        which is returned, never raised.
        """
        return await asyncio.wait_for(
            self._request(host, port, method, path, body), timeout=timeout
        )

    async def _request(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        body: bytes | None,
    ) -> tuple[int, bytes]:
        key = (host, port)
        wire = encode_request(method, path, body, keep_alive=True)
        for attempt in (0, 1):
            reader, writer, reused = await self._checkout(key)
            parked = False
            try:
                writer.write(wire)
                await writer.drain()
                status, payload, reusable = await read_response(reader)
            except _EXCHANGE_ERRORS:
                if reused and attempt == 0:
                    # The worker closed this stream while it idled
                    # (restart, idle timeout): not the worker's answer.
                    self.stale_retries += 1
                    continue
                raise
            else:
                if reusable and not self._closed:
                    self._park(key, reader, writer)
                    parked = True
                return status, payload
            finally:
                if not parked:
                    self.discards += 1
                    self._close(writer)
        raise ConnectionResetError(
            f"worker {host}:{port} closed both the pooled and the fresh stream"
        )  # pragma: no cover — the retry either returns or raises above

    # ---- stream lifecycle --------------------------------------------------------

    async def _checkout(
        self, key: tuple[str, int]
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        idle = self._idle.get(key)
        while idle:
            reader, writer = idle.pop()
            if writer.is_closing():
                self.discards += 1
                self._close(writer)
                continue
            self.reuses += 1
            return reader, writer, True
        reader, writer = await asyncio.open_connection(*key)
        self.opens += 1
        return reader, writer, False

    def _park(
        self,
        key: tuple[str, int],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        idle = self._idle.setdefault(key, [])
        if len(idle) >= self._max_idle:
            self.evictions += 1
            self._close(writer)
            return
        idle.append((reader, writer))

    @staticmethod
    def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, OSError):  # pragma: no cover — best effort
            pass

    async def aclose(self) -> None:
        """Close every idle stream; in-flight exchanges finish unpooled."""
        self._closed = True
        writers = [
            writer
            for streams in self._idle.values()
            for _, writer in streams
        ]
        self._idle.clear()
        for writer in writers:
            self.evictions += 1
            self._close(writer)
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ---- introspection -----------------------------------------------------------

    def idle_count(self) -> int:
        return sum(len(streams) for streams in self._idle.values())

    def snapshot(self) -> dict:
        return {
            "idle": self.idle_count(),
            "opens": self.opens,
            "reuses": self.reuses,
            "discards": self.discards,
            "evictions": self.evictions,
            "stale_retries": self.stale_retries,
        }
