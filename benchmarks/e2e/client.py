"""The load generator: keep-alive HTTP client, closed loops, open-loop probe.

A *job* is ``POST /jobs`` → ``GET /jobs/{id}?wait=`` until terminal →
``GET /jobs/{id}/result`` read to the last byte.  Closed-loop clients send
their next job only after the previous one's last byte; the open-loop probe
sends on a seeded Poisson schedule whatever the server is doing and times
each request from when it was *due*.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

#: Long-poll per status request; the server caps it at 30 s itself.
WAIT_SECONDS = 30
IO_TIMEOUT = 60.0


class Connection:
    """One persistent HTTP/1.1 connection that reopens itself when closed.

    The server closes a connection after ``max_requests_per_connection``
    (1000) requests and after its idle timeout, *without* announcing it.  A
    request sent into such a connection dies before any response byte; a GET
    is then sent once more on a fresh connection, a POST never is (the
    server may have acted on it), so it counts as a failed job.  To keep
    POSTs off dying connections the client retires its own after
    ``MAX_REQUESTS``, announcing it with ``Connection: close``, and it
    honours the same header from the server.  A timeout closes the
    connection too: the unread rest of the response must not answer the
    next request.
    """

    MAX_REQUESTS = 500

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._sent = 0  # requests on the open connection
        self.connects = 0

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self,
        method: str,
        target: str,
        headers: Sequence[tuple[str, str]] = (),
        body: bytes = b"",
    ) -> tuple[int, dict[str, str], bytes]:
        reused = self._writer is not None
        try:
            return await asyncio.wait_for(
                self._request(method, target, headers, body), IO_TIMEOUT
            )
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            await self.close()
            if method != "GET" or not reused or getattr(exc, "partial", b""):
                raise
        except asyncio.TimeoutError:  # the response may be half read
            await self.close()
            raise
        return await asyncio.wait_for(
            self._request(method, target, headers, body), IO_TIMEOUT
        )

    async def _request(
        self, method: str, target: str, headers: Sequence[tuple[str, str]], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
            self._sent = 0
            self.connects += 1
        reader, writer = self._reader, self._writer
        assert reader is not None
        self._sent += 1
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines += [f"{k}: {v}" for k, v in headers]
        if self._sent >= self.MAX_REQUESTS:
            lines.append("Connection: close")
        if body:
            lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()
        status, response_headers, payload = await read_response(reader)
        if (
            self._sent >= self.MAX_REQUESTS
            or response_headers.get("connection", "").lower() == "close"
        ):
            await self.close()
        return status, response_headers, payload


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head[:-4].decode("ascii").split("\r\n")
    status = int(status_line.split(" ", 2)[1])
    headers: dict[str, str] = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return status, headers, await read_chunked(reader)
    return status, headers, await reader.readexactly(int(headers.get("content-length", "0")))


async def read_chunked(reader: asyncio.StreamReader) -> bytes:
    parts: list[bytes] = []
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.split(b";", 1)[0].strip(), 16)
        if size == 0:
            await reader.readuntil(b"\r\n")  # no trailers are ever sent
            return b"".join(parts)
        chunk = await reader.readexactly(size + 2)
        parts.append(chunk[:-2])


# -- one job ---------------------------------------------------------------------
@dataclass
class JobSample:
    cluster: int
    client: int = 0
    started: float = 0.0  # perf_counter at submit-send
    finished: float = 0.0  # perf_counter at the last byte, or at giving up
    ok: bool = False
    refused: bool = False  # 429 / 503: counted as failed, never retried
    error: str = ""
    submit_rtt: float = 0.0
    result_fetch: float = 0.0
    turnaround: float = 0.0
    server_wait: float = 0.0  # wait_seconds from /jobs/{id}
    server_run: float = 0.0  # run_seconds from /jobs/{id}
    cache_hit: bool = False
    body: bytes = b""


async def run_job(
    conn: Connection, tenant: str, cluster_name: str, cluster: int, options: dict | None
) -> JobSample:
    payload: dict[str, Any] = {"cluster": cluster_name}
    if options:
        payload["options"] = options
    started = time.perf_counter()
    sample = JobSample(cluster, started=started)
    try:
        status, _, body = await conn.request(
            "POST",
            "/jobs",
            headers=(("X-Tenant", tenant), ("Content-Type", "application/json")),
            body=json.dumps(payload).encode("utf-8"),
        )
        sample.submit_rtt = time.perf_counter() - started
        if status != 202:
            sample.refused = status in (429, 503)
            sample.error = f"submit answered {status}"
            return sample
        record = json.loads(body)
        job_id = record["job_id"]
        tenant_header = (("X-Tenant", tenant),)
        while not record["terminal"]:
            status, _, body = await conn.request(
                "GET", f"/jobs/{job_id}?wait={WAIT_SECONDS}", headers=tenant_header
            )
            if status != 200:
                sample.error = f"status answered {status}"
                return sample
            record = json.loads(body)
        if record["state"] != "completed":
            sample.error = f"job ended {record['state']}: {record.get('error', '')}"
            return sample
        fetch_started = time.perf_counter()
        status, _, body = await conn.request(
            "GET", f"/jobs/{job_id}/result", headers=tenant_header
        )
        finished = time.perf_counter()
        if status != 200:
            sample.error = f"result answered {status}"
            return sample
        sample.result_fetch = finished - fetch_started
        sample.turnaround = finished - started
        sample.server_wait = float(record["wait_seconds"] or 0.0)
        sample.server_run = float(record["run_seconds"] or 0.0)
        sample.cache_hit = bool(record["cache_hit"])
        sample.body = body
        sample.ok = True
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError, KeyError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    finally:
        sample.finished = time.perf_counter()
    return sample


@dataclass
class LoopResult:
    samples: list[JobSample] = field(default_factory=list)
    wall: float = 0.0
    connects: int = 0


async def closed_loops(
    host: str,
    port: int,
    names: Sequence[str],
    client_jobs: Sequence[Sequence[Any]],
    seconds: float | None,
    keep_body: Callable[[JobSample], bool] = lambda sample: True,
) -> LoopResult:
    """One closed loop per client (each its own tenant and connection).

    A client stops at the end of its list, or — with ``seconds`` set — stops
    *submitting* at the deadline; a job in flight always finishes.  The wall
    runs from the first submit to the last result byte.
    """
    result = LoopResult()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    async def client(index: int, jobs: Sequence[Any]) -> None:
        conn = Connection(host, port)
        try:
            for job in jobs:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                sample = await run_job(
                    conn, f"tenant-{index}", names[job.cluster], job.cluster, job.options
                )
                sample.client = index
                if not keep_body(sample):
                    sample.body = b""
                result.samples.append(sample)
        finally:
            result.connects += conn.connects
            await conn.close()

    await asyncio.gather(*(client(i, jobs) for i, jobs in enumerate(client_jobs)))
    result.wall = time.perf_counter() - started
    return result


# -- the open-loop probe -----------------------------------------------------------
def poisson_schedule(rate: float, seconds: float, seed: int) -> list[tuple[float, str]]:
    """(due offset, kind) pairs: exponential gaps at ``rate``/s; half the
    requests are cache-hit jobs, a quarter each Cone and SIA queries."""
    rng = random.Random(seed)
    out: list[tuple[float, str]] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append((t, rng.choice(("job", "job", "cone", "sia"))))
        t += rng.expovariate(rate)
    return out


@dataclass
class ProbeResult:
    latencies: list[float] = field(default_factory=list)  # from the due time
    lateness: list[float] = field(default_factory=list)  # send − due
    attempted: int = 0
    failed: int = 0


async def open_loop(
    host: str,
    port: int,
    schedule: Sequence[tuple[float, str]],
    fire: Callable[[Connection, str, int], Awaitable[bool]],
) -> ProbeResult:
    """Send every request at its due time regardless of earlier ones.

    Connections are pooled (an arrival takes an idle one or opens a new
    one), so a stalled server grows the pool, not the gaps between sends.
    """
    result = ProbeResult()
    idle: list[Connection] = []
    every: list[Connection] = []
    started = time.perf_counter()

    async def one(index: int, due: float, kind: str) -> None:
        if idle:
            conn = idle.pop()
        else:
            conn = Connection(host, port)
            every.append(conn)
        sent = time.perf_counter() - started
        result.attempted += 1
        try:
            ok = await fire(conn, kind, index)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            ok = False
        if ok:
            result.latencies.append(time.perf_counter() - started - due)
        else:
            result.failed += 1
        result.lateness.append(sent - due)
        idle.append(conn)

    tasks: list[asyncio.Task] = []
    for index, (due, kind) in enumerate(schedule):
        delay = due - (time.perf_counter() - started)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, due, kind)))
    await asyncio.gather(*tasks)
    for conn in every:
        await conn.close()
    return result
