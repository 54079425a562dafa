"""Minimal HTTP/1.1 framing shared by the service and the cluster tier.

A connection carries JSON requests and JSON responses, which keeps the
parser small enough to audit: a request line, up to
:data:`MAX_HEADER_LINES` headers of which only ``Content-Length`` and
``Connection`` matter, and an exact-length body.  Connections close
after one exchange unless the client explicitly opts into
``Connection: keep-alive`` — the conservative default keeps the stdlib
``http.client`` (which the blocking :class:`ServiceClient` uses)
behaving exactly as before, while the router's worker pool reuses its
streams across forwards.

Three parties speak this dialect:

* :class:`~repro.service.server.ContentionService` — the worker-side
  server (``read_request`` / ``write_response``);
* :class:`~repro.cluster.router.ClusterRouter` — both sides: it reads
  client requests with ``read_request`` and forwards them to workers
  through a :class:`~repro.cluster.pool.WorkerPool` of keep-alive
  streams (:func:`encode_request` / :func:`read_response`);
* the stdlib ``http.client`` used by :class:`ServiceClient`, which
  interoperates because this *is* plain HTTP/1.1.
"""

from __future__ import annotations

import asyncio
import json

__all__ = [
    "HttpError",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "MAX_RESPONSE_BYTES",
    "REASONS",
    "encode_request",
    "read_request",
    "read_response",
    "write_response",
]

MAX_BODY_BYTES = 1 << 20
#: The cap on a worker's reply that the router relays.  A bulk
#: ``/predict`` query takes at least 30 bytes of a request
#: (``{"n":0,"m_comp":0,"m_comm":0},``) and its answer row at most 202
#: (``, `` and four floats of up to 24 characters); a longer number
#: lengthens both alike.  So 8x the request cap covers every
#: ``/predict`` answer to a request under it.
MAX_RESPONSE_BYTES = 8 * MAX_BODY_BYTES
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Protocol-level failure with a fixed HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ---- server half -----------------------------------------------------------------


async def _read_line(
    reader: asyncio.StreamReader,
    *,
    status: int = 400,
    what: str = "request or header line",
) -> bytes:
    """One start or header line, up to the reader's buffer limit.

    ``StreamReader.readline`` raises ``ValueError`` for a line past the
    limit (64 KiB by default); that is the peer's fault: a 400 for a
    client's request, a 502 for a worker's response.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise HttpError(status, f"{what} too long") from None


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool]:
    """Parse one request off a stream -> ``(method, path, body, keep_alive)``.

    ``keep_alive`` is True only when the client explicitly sent
    ``Connection: keep-alive`` — a server loop that honours it keeps
    reading requests off the same stream; everything else keeps the
    historical close-after-one behaviour.  Raises :class:`HttpError`
    for malformed framing; a peer that closed between requests (EOF
    before any request line) raises :class:`ConnectionResetError` so
    connection loops can distinguish a clean close from garbage.
    The query string, if any, is stripped — the API is body-driven.
    """
    raw_line = await _read_line(reader)
    if not raw_line:
        raise ConnectionResetError("peer closed the connection")
    request_line = raw_line.decode("latin-1").strip()
    if not request_line:
        raise HttpError(400, "empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    content_length = 0
    keep_alive = False
    for _ in range(MAX_HEADER_LINES):
        line = (await _read_line(reader)).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        header = name.strip().lower()
        if header == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise HttpError(400, "invalid Content-Length") from None
            if content_length < 0:
                raise HttpError(400, "invalid Content-Length")
        elif header == "connection":
            keep_alive = value.strip().lower() == "keep-alive"
    else:
        raise HttpError(400, "too many headers")
    if content_length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    path = target.split("?", 1)[0]
    return method, path, body, keep_alive


def encode_response(
    status: int, body: bytes, *, keep_alive: bool = False
) -> bytes:
    """One complete JSON response as wire bytes."""
    reason = REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | bytes,
    *,
    keep_alive: bool = False,
) -> None:
    """Serialise and send one response; a vanished client is not an error."""
    body = (
        payload
        if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    try:
        writer.write(encode_response(status, body, keep_alive=keep_alive))
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client went away; nothing to salvage


# ---- client half (used by the router to reach workers) ---------------------------


def encode_request(
    method: str, path: str, body: bytes | None, *, keep_alive: bool = False
) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: cluster\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {0 if body is None else len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + (body or b"")


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes, bool]:
    """Parse one response off a stream -> ``(status, body, reusable)``.

    ``reusable`` is True only when the server explicitly answered
    ``Connection: keep-alive`` — the stream can carry another exchange.
    A peer that closed before sending a status line raises
    :class:`ConnectionResetError` (the signature of a parked keep-alive
    stream the server timed out); malformed framing, such as a negative
    ``Content-Length`` or a line past the reader's limit, raises
    :class:`HttpError` with a 502.
    """
    raw_line = await _read_line(reader, status=502, what="status line")
    if not raw_line:
        raise ConnectionResetError("peer closed the connection")
    status_line = raw_line.decode("latin-1").strip()
    parts = status_line.split(maxsplit=2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(502, f"malformed status line {status_line!r}")
    status = int(parts[1])
    content_length: int | None = None
    reusable = False
    for _ in range(MAX_HEADER_LINES):
        line = (
            await _read_line(reader, status=502, what="header line")
        ).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        header = name.strip().lower()
        if header == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise HttpError(502, "invalid Content-Length") from None
            if content_length < 0:
                raise HttpError(502, "invalid Content-Length")
        elif header == "connection":
            reusable = value.strip().lower() == "keep-alive"
    else:
        raise HttpError(502, "too many headers in response")
    if content_length is not None:
        if content_length > MAX_RESPONSE_BYTES:
            raise HttpError(502, "response body too large")
        payload = await reader.readexactly(content_length)
    else:
        # No length means the body runs to EOF: the stream cannot be
        # reused regardless of what the Connection header claimed.
        reusable = False
        payload = await reader.read(MAX_RESPONSE_BYTES + 1)
        if len(payload) > MAX_RESPONSE_BYTES:
            raise HttpError(502, "response body too large")
    return status, payload, reusable
