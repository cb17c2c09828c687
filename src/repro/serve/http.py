"""Minimal HTTP/1.1 over asyncio streams: parsing, responses, streaming.

The serving tier speaks just enough HTTP/1.1 for the portal's endpoints —
GET/POST, query strings, ``Content-Length`` bodies, persistent connections
and chunked transfer encoding for streamed VOTables — implemented directly
on :class:`asyncio.StreamReader`/``StreamWriter`` with hard limits
everywhere a slow or hostile client could pin resources:

* header section bounded by ``max_header_bytes`` and a read deadline
  (slow-loris protection);
* bodies bounded by ``max_body_bytes`` (413 beyond it);
* every write drained under a deadline, so a client that stops reading a
  streamed response aborts the connection instead of wedging a handler.

Request ``Transfer-Encoding`` is deliberately unsupported (501): clients
of this service never need to chunk uploads, and rejecting it removes a
whole smuggling class.
"""

from __future__ import annotations

import asyncio
import contextlib
import urllib.parse
from dataclasses import dataclass
from typing import AsyncIterator, Iterable

#: Response reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol- or application-level error with an HTTP mapping."""

    def __init__(
        self,
        status: int,
        detail: str = "",
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        super().__init__(detail or REASONS.get(status, str(status)))
        self.status = status
        self.detail = detail
        self.headers = headers


class SlowClientError(Exception):
    """The peer failed to send (or accept) bytes within its deadline."""


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    version: str
    headers: dict[str, str]  # keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


def _parse_headers(block: bytes) -> dict[str, str]:
    headers: dict[str, str] = {}
    for raw in block.split(b"\r\n"):
        if not raw:
            continue
        name, sep, value = raw.partition(b":")
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {raw[:80]!r}")
        try:
            headers[name.decode("ascii").lower()] = value.strip().decode("ascii")
        except UnicodeDecodeError as exc:
            raise HttpError(400, "non-ASCII header") from exc
    return headers


def parse_request_head(head: bytes) -> HttpRequest:
    """Parse the request line + header block (no body)."""
    line, _, rest = head.partition(b"\r\n")
    parts = line.split(b" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {line[:80]!r}")
    raw_method, raw_target, raw_version = parts
    try:
        method = raw_method.decode("ascii")
        target = raw_target.decode("ascii")
        version = raw_version.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HttpError(400, "non-ASCII request line") from exc
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    if not method.isalpha() or not method.isupper():
        raise HttpError(400, f"malformed method {method!r}")
    parsed = urllib.parse.urlsplit(target)
    query = dict(urllib.parse.parse_qsl(parsed.query, keep_blank_values=True))
    return HttpRequest(
        method=method,
        target=target,
        path=urllib.parse.unquote(parsed.path) or "/",
        query=query,
        version=version,
        headers=_parse_headers(rest),
    )


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_header_bytes: int = 16384,
    max_body_bytes: int = 1 << 20,
    timeout: float = 5.0,
) -> HttpRequest | None:
    """Read one request; ``None`` on a clean EOF before any byte arrived.

    Raises :class:`SlowClientError` when the deadline passes mid-request,
    :class:`HttpError` on protocol violations.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout
        )
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "header section too large") from exc
    except asyncio.TimeoutError as exc:
        raise SlowClientError("request header deadline exceeded") from exc
    if len(head) > max_header_bytes:
        raise HttpError(413, "header section too large")
    request = parse_request_head(head[:-4])
    if "transfer-encoding" in request.headers:
        raise HttpError(501, "request transfer-encoding is not supported")
    length_text = request.header("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"malformed content-length {length_text!r}") from exc
    if length < 0:
        raise HttpError(400, f"negative content-length {length}")
    if length > max_body_bytes:
        raise HttpError(413, f"body of {length} bytes exceeds {max_body_bytes}")
    if length:
        try:
            request.body = await asyncio.wait_for(
                reader.readexactly(length), timeout=timeout
            )
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "connection closed mid-body") from exc
        except asyncio.TimeoutError as exc:
            raise SlowClientError("request body deadline exceeded") from exc
    return request


@dataclass
class Response:
    """A fully materialised response (Content-Length framing)."""

    status: int
    body: bytes = b""
    content_type: str = "text/plain; charset=utf-8"
    headers: tuple[tuple[str, str], ...] = ()


@dataclass
class StreamingResponse:
    """A chunked response whose body is produced incrementally.

    ``chunks`` yields ``str`` or ``bytes``; empty yields are skipped (an
    empty chunk would terminate the chunked stream early).
    """

    content_type = "application/x-votable+xml"  # every stream is a VOTable

    status: int
    chunks: AsyncIterator[bytes | str] | Iterable[bytes | str]
    headers: tuple[tuple[str, str], ...] = ()


def render_head(
    status: int,
    headers: Iterable[tuple[str, str]],
    *,
    keep_alive: bool,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append("Connection: keep-alive" if keep_alive else "Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


async def _drain(writer: asyncio.StreamWriter, timeout: float) -> None:
    try:
        await asyncio.wait_for(writer.drain(), timeout=timeout)
    except asyncio.TimeoutError as exc:
        raise SlowClientError("response write deadline exceeded") from exc


async def write_response(
    writer: asyncio.StreamWriter,
    response: Response | StreamingResponse,
    *,
    keep_alive: bool,
    write_timeout: float = 5.0,
    head_only: bool = False,
) -> int:
    """Serialise ``response``; returns body bytes written.

    ``head_only`` supports HEAD: full headers, no body bytes (chunked
    responses still advertise chunked framing, per RFC 9110 §9.3.2).
    """
    base = [("Content-Type", response.content_type), *response.headers]
    if isinstance(response, Response):
        head = render_head(
            response.status,
            base + [("Content-Length", str(len(response.body)))],
            keep_alive=keep_alive,
        )
        writer.write(head if head_only else head + response.body)
        await _drain(writer, write_timeout)
        return 0 if head_only else len(response.body)
    head = render_head(
        response.status,
        base + [("Transfer-Encoding", "chunked")],
        keep_alive=keep_alive,
    )
    sent = 0
    chunks = response.chunks
    try:
        writer.write(head)
        await _drain(writer, write_timeout)
        if hasattr(chunks, "__aiter__"):
            async for chunk in chunks:  # type: ignore[union-attr]
                sent += await _write_chunk(writer, chunk, write_timeout, head_only)
        else:
            for chunk in chunks:  # type: ignore[union-attr]
                sent += await _write_chunk(writer, chunk, write_timeout, head_only)
        if not head_only:
            writer.write(b"0\r\n\r\n")
            await _drain(writer, write_timeout)
    finally:
        # An aborted write must still finalise the producer (generators
        # may hold resources — e.g. the app's tenant-gate slot).
        if hasattr(chunks, "aclose"):
            with contextlib.suppress(Exception):
                await chunks.aclose()  # type: ignore[union-attr]
        elif hasattr(chunks, "close"):
            with contextlib.suppress(Exception):
                chunks.close()  # type: ignore[union-attr]
    return sent


async def _write_chunk(
    writer: asyncio.StreamWriter,
    chunk: bytes | str,
    write_timeout: float,
    head_only: bool,
) -> int:
    data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
    if not data or head_only:
        return 0
    writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
    await _drain(writer, write_timeout)
    return len(data)


def error_response(error: HttpError) -> Response:
    body = (error.detail or REASONS.get(error.status, "")).encode("utf-8")
    return Response(
        status=error.status,
        body=body + b"\n" if body else b"",
        headers=error.headers,
    )
