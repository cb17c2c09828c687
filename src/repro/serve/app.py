"""The portal application: endpoint routing, admission, streaming bodies.

:class:`ServeApp` maps the serving tier's HTTP surface onto the existing
components — Cone/SIA queries onto the synthetic data services, job
submission/status/results onto the :class:`WorkloadManager` — with the
overload behaviour web-scale astronomy portals need:

* **per-tenant admission** at the HTTP boundary: a
  :class:`TenantGate` bounds in-flight requests per tenant and globally,
  with bounds derived from the scheduler's
  :class:`~repro.scheduler.policy.AdmissionPolicy` so the HTTP tier and
  the queue agree on what "full" means;
* **backpressure, not queue growth**: a rejected request is a ``429``
  with a ``Retry-After`` estimated from current queue depth — the
  open-loop SkyServer lesson that shedding early beats collapsing late;
* **streaming results**: Cone/SIA tables and job results go out as
  chunked transfer encoding via :func:`repro.votable.writer.iter_votable`,
  so a large table never materialises as one string in the serving path.

Blocking work (service queries, journal appends, waits) runs through
:func:`asyncio.to_thread` on the loop's default executor, which copies the
request's :mod:`contextvars` — the trace context reaches the manager; the
app itself only ever runs on the event loop.  The server gives that
executor one thread per request the gate admits.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Iterable, Iterator

from repro import telemetry
from repro.core.errors import (
    QueueFullError,
    QuotaExceededError,
    ResultGoneError,
    SchedulerError,
    ServiceError,
    UnknownJobError,
)
from repro.resilience.breaker import BreakerState
from repro.serve.http import (
    HttpError,
    HttpRequest,
    Response,
    StreamingResponse,
)
from repro.serve.observability import ObservabilityPlane
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.telemetry.exporters import to_prometheus_text
from repro.votable.model import VOTable
from repro.votable.writer import iter_votable

#: Chunk size for streaming pre-materialised result bytes.
RESULT_CHUNK_BYTES = 16384

#: Upper bound on a ``?wait=`` long-poll, seconds.
MAX_WAIT_SECONDS = 30.0


class TenantGate:
    """In-flight request bounds, per tenant and global.

    Only ever touched from the event loop, so plain counters suffice.
    :class:`ServeApp` takes the bounds from the scheduler's admission
    policy: a tenant may have as many requests in flight as it may have
    active jobs, and the server as many as the queue may hold.
    """

    def __init__(self, per_tenant: int, total: int) -> None:
        if per_tenant < 1 or total < 1:
            raise ValueError(
                f"gate bounds must be positive: per_tenant={per_tenant}, total={total}"
            )
        self.per_tenant = per_tenant
        self.total = total
        self._inflight: dict[str, int] = {}
        self._total = 0

    def try_enter(self, tenant: str) -> bool:
        if self._total >= self.total:
            return False
        if self._inflight.get(tenant, 0) >= self.per_tenant:
            return False
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._total += 1
        return True

    def leave(self, tenant: str) -> None:
        count = self._inflight.get(tenant, 0)
        if count <= 1:
            self._inflight.pop(tenant, None)
        else:
            self._inflight[tenant] = count - 1
        self._total = max(0, self._total - 1)

    def inflight(self, tenant: str | None = None) -> int:
        if tenant is None:
            return self._total
        return self._inflight.get(tenant, 0)


class _ReleasingChunks:
    """Iterator releasing a tenant-gate slot exactly once.

    A plain generator with ``finally`` is not enough: closing a generator
    that never started skips its ``finally`` entirely, so a stream
    abandoned before the first chunk (e.g. the response head write hit the
    slow-client deadline) would leak the slot.  This wrapper releases on
    exhaustion, on error, and on ``close()`` — whichever comes first.
    """

    def __init__(
        self, gate: TenantGate, tenant: str, inner: Iterable[bytes | str]
    ) -> None:
        self._gate = gate
        self._tenant = tenant
        self._inner: Iterator[bytes | str] = iter(inner)
        self._released = False

    def __iter__(self) -> "_ReleasingChunks":
        return self

    def __next__(self) -> bytes | str:
        try:
            return next(self._inner)
        except BaseException:  # including StopIteration
            self._release()
            raise

    def close(self) -> None:
        self._release()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()

    def _release(self) -> None:
        if not self._released:
            self._released = True
            self._gate.leave(self._tenant)


def _json_response(
    payload: Any, status: int = 200, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    return Response(
        status=status,
        body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        content_type="application/json",
        headers=headers,
    )


#: Breaker states, healthiest first.
_SITE_STATES = tuple(
    s.value for s in (BreakerState.CLOSED, BreakerState.HALF_OPEN, BreakerState.OPEN)
)


def _worst_sites(shards: Iterable[dict[str, Any]]) -> dict[str, str]:
    """Each site's worst state over the shards' ``sites`` (a dead shard has none)."""
    worst: dict[str, str] = {}
    for entry in shards:
        for site, state in entry.get("sites", {}).items():
            worst[site] = max(worst.get(site, state), state, key=_SITE_STATES.index)
    return worst


class ServeApp:
    """Routes requests onto the demo environment and workload manager."""

    def __init__(
        self,
        env: Any,
        manager: Any,
        *,
        plane: ObservabilityPlane,
        gate: TenantGate | None = None,
    ) -> None:
        self.env = env
        self.manager = manager
        if gate is None:
            admission = manager.admission
            gate = TenantGate(
                per_tenant=admission.max_active_per_user,
                total=admission.max_queue_depth,
            )
        self.gate = gate
        self.plane = plane

    # -- admission ------------------------------------------------------------
    @staticmethod
    def tenant_of(request: HttpRequest) -> str:
        return request.header("x-tenant") or request.query.get("user") or "anonymous"

    def retry_after(self) -> int:
        """Seconds a shed client should wait, from current backlog."""
        depth = self.manager.queue_depth() + self.manager.running_jobs()
        return max(1, min(30, round(0.5 * depth)))

    def _shed(self, reason: str, retry_after: int | None = None) -> HttpError:
        telemetry.count("serve_shed_total", reason=reason)
        seconds = self.retry_after() if retry_after is None else retry_after
        error = HttpError(
            429,
            f"overloaded ({reason}); retry after {seconds}s",
            headers=(("Retry-After", str(seconds)),),
        )
        error.shed_reason = reason
        return error

    # -- metrics labels --------------------------------------------------------
    @staticmethod
    def route_label(method: str, path: str) -> str:
        """Stable low-cardinality route label for metrics."""
        if path.startswith("/jobs"):
            if path == "/jobs":
                return "jobs.submit" if method == "POST" else "jobs.list"
            if path.endswith("/result"):
                return "jobs.result"
            return "jobs.status"
        if path in ("/cone", "/sia", "/health", "/metrics", "/queue"):
            return path[1:]
        if path.startswith("/debug/"):
            return "debug"
        return "unmatched"

    # -- dispatch --------------------------------------------------------------
    async def handle(self, request: HttpRequest) -> Response | StreamingResponse:
        """Route one request; raises :class:`HttpError` for error statuses."""
        tenant = self.tenant_of(request)
        if not self.gate.try_enter(tenant):
            raise self._shed("tenant-gate", retry_after=1)
        release = True
        try:
            response = await self._dispatch(request, tenant)
            if isinstance(response, StreamingResponse):
                # The body is produced after handle() returns; hold the
                # gate slot until the stream is fully consumed or closed.
                response.chunks = _ReleasingChunks(self.gate, tenant, response.chunks)
                release = False
            return response
        finally:
            if release:
                self.gate.leave(tenant)

    async def _dispatch(
        self, request: HttpRequest, tenant: str
    ) -> Response | StreamingResponse:
        method, path = request.method, request.path
        if path == "/health":
            return await self._health(method)
        if path == "/metrics":
            return await self._metrics(method)
        if path == "/cone":
            return await self._cone(request, method)
        if path == "/sia":
            return await self._sia(request, method)
        if path == "/queue":
            self._require(method, "GET")
            return _json_response(await asyncio.to_thread(self.manager.snapshot))
        if path == "/jobs":
            if method == "POST":
                return await self._submit(request, tenant)
            self._require(method, "GET")
            records = await asyncio.to_thread(self.manager.jobs)
            return _json_response({"jobs": [r.view() for r in records]})
        if path.startswith("/jobs/"):
            return await self._job(request, method, path)
        if path.startswith("/debug/"):
            return await self._debug(request, method, path)
        raise HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise HttpError(
                405,
                f"method {method} not allowed",
                headers=(("Allow", ", ".join(allowed)),),
            )

    # -- endpoints ----------------------------------------------------------------
    async def _health(self, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        payload: dict[str, Any] = {
            "status": "ok",
            "queued": self.manager.queue_depth(),
            "running": self.manager.running_jobs(),
            "inflight": self.gate.inflight(),
        }
        shard_health = getattr(self.manager, "shard_health", None)
        if shard_health is not None:
            # Fleet front door: aggregate per-shard liveness (reaping dead
            # workers as a side effect) and degrade status on any death.
            fleet_health = await asyncio.to_thread(shard_health)
            payload["shards"] = fleet_health
            if fleet_health["dead"]:
                payload["status"] = "degraded"
            # The coordinator runs no job: the shards' breakers are the sites'.
            payload["sites"] = _worst_sites(fleet_health["shards"].values())
        else:
            payload["sites"] = self.env.vds.health.states()
        if self.plane.enabled:
            slo = self.plane.slo_snapshot()
            payload["slo"] = slo
            if slo["state"] != "ok":
                payload["status"] = "degraded"
        return _json_response(payload)

    async def _metrics(self, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        merged = getattr(self.manager, "merged_metrics_text", None)
        if merged is not None:
            # Fleet front door: one exposition spanning the coordinator and
            # every worker process (per-shard series keep their labels).
            text = await asyncio.to_thread(merged)
        else:
            text = telemetry.prometheus_text()
        if self.plane.enabled:
            text += to_prometheus_text(self.plane.gauges())
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- debug surface -----------------------------------------------------------
    async def _debug(
        self, request: HttpRequest, method: str, path: str
    ) -> Response:
        if not self.plane.enabled:
            raise HttpError(404, "observability plane is not enabled")
        plane = self.plane
        if path == "/debug/requests":
            self._require(method, "GET")
            return _json_response(plane.requests_snapshot())
        if path == "/debug/slo":
            self._require(method, "GET")
            return _json_response(plane.slo_snapshot())
        if path.startswith("/debug/trace/"):
            self._require(method, "GET")
            trace_id = path[len("/debug/trace/") :]
            entry = plane.trace_snapshot(trace_id)
            if entry is None:
                raise HttpError(404, f"no retained trace {trace_id!r}")
            return _json_response(entry)
        if path == "/debug/flight/dump":
            self._require(method, "POST")
            try:
                payload = json.loads(request.body or b"{}")
            except json.JSONDecodeError as exc:
                raise HttpError(400, f"malformed JSON body: {exc}") from exc
            target = payload.get("path") if isinstance(payload, dict) else None
            if not target or not isinstance(target, str):
                raise HttpError(400, "body requires a 'path' string")
            try:
                count = await asyncio.to_thread(plane.dump_flight, target)
            except OSError as exc:
                raise HttpError(400, f"cannot write dump: {exc}") from exc
            return _json_response({"path": target, "traces": count})
        raise HttpError(404, f"no route for {path}")

    def _stream_table(self, table: VOTable) -> StreamingResponse:
        return StreamingResponse(
            status=200,
            chunks=iter_votable(table),
            headers=(("X-Record-Count", str(len(table))),),
        )

    async def _cone(self, request: HttpRequest, method: str) -> StreamingResponse:
        self._require(method, "GET")
        catalog = request.query.get("catalog", "photometry")
        services = {
            "photometry": self.env.photometry_service,
            "redshift": self.env.redshift_service,
        }
        service = services.get(catalog)
        if service is None:
            raise HttpError(
                400, f"unknown catalog {catalog!r}; expected one of {sorted(services)}"
            )
        try:
            cone = ConeSearchRequest.from_query(request.query)
        except ServiceError as exc:
            raise HttpError(400, str(exc)) from exc
        table = await asyncio.to_thread(service.search, cone)
        return self._stream_table(table)

    async def _sia(self, request: HttpRequest, method: str) -> StreamingResponse:
        self._require(method, "GET")
        survey = request.query.get("survey", "dss")
        archives = {
            "dss": self.env.optical_archive,
            "rosat": self.env.rosat_archive,
            "chandra": self.env.chandra_archive,
        }
        archive = archives.get(survey)
        if archive is None:
            raise HttpError(
                400, f"unknown survey {survey!r}; expected one of {sorted(archives)}"
            )
        try:
            sia = SIARequest.from_query(request.query)
        except ServiceError as exc:
            raise HttpError(400, str(exc)) from exc
        table = await asyncio.to_thread(archive.query, sia)
        return self._stream_table(table)

    async def _submit(self, request: HttpRequest, tenant: str) -> Response:
        try:
            payload = json.loads(request.body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        cluster = payload.get("cluster")
        if not cluster or not isinstance(cluster, str):
            raise HttpError(400, "body requires a 'cluster' string")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise HttpError(400, "'options' must be an object")
        user = payload.get("user") or tenant
        if not isinstance(user, str):
            # fair share hashes and sorts tenant names: one list or int
            # queued would stop every pick, for every tenant
            raise HttpError(400, "'user' must be a non-empty string")
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, "'priority' must be an integer") from exc
        try:
            record = await asyncio.to_thread(
                self.manager.submit, user, cluster, options, priority
            )
        except QueueFullError:
            raise self._shed("queue-full") from None
        except QuotaExceededError:
            raise self._shed("tenant-quota") from None
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return _json_response(
            record.view(),
            status=202,
            headers=(("Location", f"/jobs/{record.job_id}"),),
        )

    async def _job(
        self, request: HttpRequest, method: str, path: str
    ) -> Response | StreamingResponse:
        self._require(method, "GET")
        rest = path[len("/jobs/") :]
        job_id, _, tail = rest.partition("/")
        if tail not in ("", "result"):
            raise HttpError(404, f"no route for {path}")
        try:
            if tail == "result":
                return await self._job_result(job_id)
            wait = request.query.get("wait")
            if wait is not None:
                timeout = float(wait)
                if not math.isfinite(timeout):
                    # nan slips through min/max and would wait unbounded
                    raise HttpError(400, f"'wait' must be a finite number, got {wait!r}")
                timeout = min(max(timeout, 0.0), MAX_WAIT_SECONDS)
                try:
                    await asyncio.to_thread(self.manager.wait, job_id, timeout)
                except SchedulerError:
                    pass  # long-poll timed out: report the current state
            record = await asyncio.to_thread(self.manager.job, job_id)
        except UnknownJobError as exc:
            raise HttpError(404, str(exc)) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return _json_response(record.view())

    async def _job_result(self, job_id: str) -> StreamingResponse:
        try:
            content = await asyncio.to_thread(self.manager.result_bytes, job_id)
        except UnknownJobError as exc:
            raise HttpError(404, str(exc)) from exc
        except ResultGoneError as exc:
            # Completed, but its bytes are materialised nowhere any more.
            raise HttpError(410, str(exc)) from exc
        except SchedulerError as exc:
            # Known job, not completed yet (or failed / cancelled).
            raise HttpError(409, str(exc)) from exc
        chunks = (
            content[i : i + RESULT_CHUNK_BYTES]
            for i in range(0, len(content), RESULT_CHUNK_BYTES)
        )
        return StreamingResponse(status=200, chunks=chunks)
