"""The asyncio connection tier: keep-alive, deadlines, graceful shutdown.

:class:`PortalHttpServer` owns the sockets.  Each accepted connection runs
one handler task that loops request → dispatch → response until the client
closes, a deadline fires, or the per-connection request cap is reached.
The design targets the two classic portal failure modes:

* **slow clients** — header/body reads and every response drain run under
  ``asyncio.wait_for`` deadlines, and the transport's write buffer is kept
  small so a reader that stalls trips the drain deadline instead of
  buffering the whole response in kernel+userspace memory;
* **connection floods** — beyond ``max_connections`` concurrent handlers,
  new connections get an immediate ``503 Retry-After`` and are closed
  (accept-and-shed, never accept-and-queue).

Shutdown is leak-free by construction: handler tasks are tracked in a
set, ``close()`` stops the listener, cancels whatever is still running,
and awaits every task — ``scripts/serve_smoke.py`` (CI) asserts no stray tasks or
sockets survive.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from repro import telemetry
from repro.serve.app import ServeApp
from repro.serve.http import (
    HttpError,
    HttpRequest,
    Response,
    SlowClientError,
    StreamingResponse,
    error_response,
    read_request,
    render_head,
    write_response,
)
from repro.serve.observability import (
    REQUEST_ID_HEADER,
    TRACE_ID_HEADER,
    request_id_of,
    trace_context_of,
)
from repro.telemetry import tracing

#: Keep the kernel-side write buffer small so ``drain()`` exerts real
#: backpressure and slow readers hit the write deadline.
WRITE_BUFFER_HIGH = 16384


class PortalHttpServer:
    """Serve a :class:`ServeApp` over asyncio streams."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        header_timeout: float = 5.0,
        keep_alive_timeout: float = 10.0,
        write_timeout: float = 5.0,
        max_connections: int = 256,
        max_requests_per_connection: int = 1000,
        max_header_bytes: int = 16384,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self.app = app
        self.host = host
        self._requested_port = port
        self.header_timeout = header_timeout
        self.keep_alive_timeout = keep_alive_timeout
        self.write_timeout = write_timeout
        self.max_connections = max_connections
        self.max_requests_per_connection = max_requests_per_connection
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self._requested_port,
            limit=max(self.max_header_bytes, 65536),
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def connections(self) -> int:
        return len(self._handlers)

    async def close(self, grace: float = 5.0) -> None:
        """Stop accepting, give in-flight handlers ``grace`` seconds, then
        cancel; returns with every handler task finished."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = set(self._handlers)
        if pending:
            _, still_running = await asyncio.wait(pending, timeout=grace)
            for task in still_running:
                task.cancel()
            if still_running:
                await asyncio.gather(*still_running, return_exceptions=True)
        self._handlers.clear()

    async def __aenter__(self) -> "PortalHttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- per-connection handling ------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with contextlib.suppress(Exception):
            writer.transport.set_write_buffer_limits(high=WRITE_BUFFER_HIGH)
        telemetry.gauge_set("serve_open_connections", float(len(self._handlers)))
        try:
            if len(self._handlers) > self.max_connections or self._closed:
                telemetry.count("serve_shed_total", reason="connection-flood")
                plane = self.app.plane
                if plane is not None and plane.enabled:
                    plane.record_flood()
                writer.write(
                    render_head(
                        503,
                        [("Retry-After", "1"), ("Content-Length", "0")],
                        keep_alive=False,
                    )
                )
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(writer.drain(), self.write_timeout)
                return
            served = 0
            while not self._closed:
                timeout = (
                    self.header_timeout if served == 0 else self.keep_alive_timeout
                )
                try:
                    request = await self._read_request(reader, timeout)
                except HttpError as error:
                    telemetry.count(
                        "serve_requests_total",
                        route="unparsed",
                        status=str(error.status),
                    )
                    plane = self.app.plane
                    if plane is not None and plane.enabled:
                        plane.end(
                            trace_id="",
                            request_id="",
                            method="",
                            path="",
                            route="unparsed",
                            tenant="unknown",
                            status=error.status,
                        )
                    await write_response(
                        writer,
                        error_response(error),
                        keep_alive=False,
                        write_timeout=self.write_timeout,
                    )
                    return
                if request is None:
                    return  # clean close or deadline between requests
                served += 1
                last = served >= self.max_requests_per_connection
                if not await self._serve_request(request, writer, last):
                    return
        except (SlowClientError, ConnectionResetError, BrokenPipeError):
            pass  # peer gone: nothing useful left to send
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            telemetry.gauge_set(
                "serve_open_connections", float(max(0, len(self._handlers) - 1))
            )

    async def _read_request(
        self, reader: asyncio.StreamReader, timeout: float
    ) -> HttpRequest | None:
        try:
            return await read_request(
                reader,
                max_header_bytes=self.max_header_bytes,
                max_body_bytes=self.max_body_bytes,
                timeout=timeout,
            )
        except SlowClientError:
            telemetry.count("serve_slow_client_aborts_total", side="read")
            return None

    async def _serve_request(
        self, request: HttpRequest, writer: asyncio.StreamWriter, last: bool
    ) -> bool:
        """Dispatch + write one request; returns False to drop the connection.

        ``last`` marks the final request this connection is allowed: its
        response says ``Connection: close`` rather than promising a
        keep-alive the server is about to break."""
        route = self.app.route_label(request.method, request.path)
        method, path = request.method, request.path
        tenant = self.app.tenant_of(request)
        # The request id is echoed unconditionally — it is the cheap half of
        # the contract (loadgen asserts the echo on every response); the
        # full plane below is the guarded half.
        request_id = request_id_of(request)
        plane = self.app.plane
        active = plane is not None and plane.enabled and telemetry.enabled()
        trace_id = ""
        span = None
        token = None
        if active:
            trace_id, parent_span = trace_context_of(request)
            token = tracing.set_current((trace_id, parent_span))
            plane.begin(trace_id)
            span = telemetry.trace_span(
                "serve.request",
                method=method,
                route=route,
                path=path,
                tenant=tenant,
                request_id=request_id,
            )
            span.__enter__()
        started = time.monotonic()
        keep_alive = request.keep_alive and not last
        status = 500
        bytes_sent = 0
        shed_reason = ""
        error_name = ""
        try:
            head_only = request.method == "HEAD"
            if head_only:
                request = HttpRequest(
                    method="GET",
                    target=request.target,
                    path=request.path,
                    query=request.query,
                    version=request.version,
                    headers=request.headers,
                    body=request.body,
                )
            try:
                response: Response | StreamingResponse = await self.app.handle(request)
            except HttpError as error:
                shed_reason = getattr(error, "shed_reason", "")
                response = error_response(error)
            status = response.status
            extra = ((REQUEST_ID_HEADER, request_id),)
            if active:
                extra += ((TRACE_ID_HEADER, trace_id),)
            response.headers = tuple(response.headers) + extra
            bytes_sent = await write_response(
                writer,
                response,
                keep_alive=keep_alive,
                write_timeout=self.write_timeout,
                head_only=head_only,
            )
            return keep_alive
        except SlowClientError:
            telemetry.count("serve_slow_client_aborts_total", side="write")
            status = 0  # aborted mid-response: no status reached the client
            return False
        except (ConnectionResetError, BrokenPipeError):
            status = 0
            return False
        except Exception as exc:  # noqa: BLE001 - handler bugs must not kill the tier
            telemetry.count("serve_errors_total", error=type(exc).__name__)
            error_name = type(exc).__name__
            status = 500
            with contextlib.suppress(Exception):
                await write_response(
                    writer,
                    Response(
                        status=500,
                        body=b"internal server error\n",
                        headers=((REQUEST_ID_HEADER, request_id),),
                    ),
                    keep_alive=False,
                    write_timeout=self.write_timeout,
                )
            return False
        finally:
            duration = time.monotonic() - started
            telemetry.count(
                "serve_requests_total", route=route, status=str(status)
            )
            telemetry.observe("serve_request_seconds", duration, route=route)
            if span is not None:
                span.set(status=status, bytes=bytes_sent)
                if shed_reason:
                    span.set(shed=shed_reason)
                if error_name or status >= 500 or status == 0:
                    span.status = "error"
                span.__exit__(None, None, None)
            if token is not None:
                tracing.CURRENT_SPAN.reset(token)
            if active:
                plane.end(
                    trace_id=trace_id,
                    request_id=request_id,
                    method=method,
                    path=path,
                    route=route,
                    tenant=tenant,
                    status=status,
                    shed_reason=shed_reason,
                    bytes_sent=bytes_sent,
                    duration_s=duration,
                    error=error_name,
                )
