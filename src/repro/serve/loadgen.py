"""Open-loop load generation against the portal serving tier.

Closed-loop harnesses (each virtual user waits for its response before
sending again) hide overload: when the server slows down, the offered
load politely drops with it — the *coordinated omission* trap.  This
generator is **open-loop**: request arrival times are drawn up front from
a Poisson process (exponential inter-arrivals, seeded RNG) and every
request fires at its scheduled instant regardless of how the previous
ones are faring, which is how real portal traffic behaves and the only
way a p99 under load means anything.

Three canonical scenarios cover the SLO surface:

* **steady** — Poisson arrivals at a sustainable rate, mixed tenants and
  request kinds: the throughput/latency baseline;
* **thundering herd** — every request released at t=0: measures shed
  behaviour (429/503 with ``Retry-After``) and recovery, not latency;
* **slow clients** — a fraction of requests read their response a few
  bytes at a time: the tier must abort or bound them without letting the
  p99 of well-behaved traffic degrade.

Each request runs on its own connection (as a distinct portal user's
browser would) through a deliberately independent minimal HTTP client, so
the generator also acts as a second, adversarial implementation of the
wire protocol.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.serve.http import HttpError
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.telemetry.metrics import quantile_rank
from repro.utils.rng import DEMO_SEED


def nearest_rank(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 100]) of pre-sorted samples: the
    client side holds every latency, so it ranks the samples themselves."""
    if not sorted_samples:
        return float("nan")
    return sorted_samples[quantile_rank(len(sorted_samples), q) - 1]


#: Slow readers pull this many bytes per read.
SLOW_READ_BYTES = 512


# -- the minimal client -----------------------------------------------------------
async def http_request(
    host: str,
    port: int,
    method: str,
    target: str,
    *,
    headers: Sequence[tuple[str, str]] = (),
    body: bytes = b"",
    read_delay: float = 0.0,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], bytes]:
    """One request on one fresh connection; returns (status, headers, body)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        lines = [f"{method} {target} HTTP/1.1", f"Host: {host}:{port}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.append("Connection: close")
        if body:
            lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
        await asyncio.wait_for(writer.drain(), timeout=timeout)
        return await asyncio.wait_for(
            _read_response(reader, read_delay), timeout=timeout
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - peer may already have reset
            pass


async def _read_response(
    reader: asyncio.StreamReader, read_delay: float
) -> tuple[int, dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, _, header_block = head[:-4].partition(b"\r\n")
    parts = status_line.split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
        raise HttpError(0, f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for raw in header_block.split(b"\r\n"):
        if raw:
            name, _, value = raw.partition(b":")
            headers[name.decode("ascii").lower()] = value.strip().decode("ascii")
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = await _read_chunked(reader, read_delay)
    elif "content-length" in headers:
        body = await _read_n(reader, int(headers["content-length"]), read_delay)
    else:  # a close-delimited body
        body = await reader.read()
    return status, headers, body


async def _read_n(reader: asyncio.StreamReader, n: int, delay: float) -> bytes:
    if delay <= 0:
        return await reader.readexactly(n)
    out = bytearray()
    while len(out) < n:
        out += await reader.readexactly(min(SLOW_READ_BYTES, n - len(out)))
        await asyncio.sleep(delay)
    return bytes(out)


async def _read_chunked(reader: asyncio.StreamReader, delay: float) -> bytes:
    out = bytearray()
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.strip().split(b";")[0], 16)
        if size == 0:
            await reader.readuntil(b"\r\n")  # trailing CRLF after last-chunk
            return bytes(out)
        out += await _read_n(reader, size, delay)
        await reader.readexactly(2)  # chunk-data CRLF


# -- scenarios --------------------------------------------------------------------
#: Every scenario's traffic composition: the tenants requests rotate over,
#: and the request-kind mix as (kind, weight).
TENANTS = ("alice", "bob", "carol")
MIX = (("cone", 0.45), ("sia", 0.2), ("status", 0.2), ("submit", 0.15))

#: Seconds before an unanswered request counts as a transport failure.
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Scenario:
    """One open-loop run: arrival process + slow-reader share."""

    name: str
    requests: int
    #: Poisson arrival rate (requests/second); ``None`` releases the whole
    #: scenario at t=0 — the thundering herd.
    rate: float | None
    #: every Nth request reads its response slowly (0 disables slow readers).
    slow_every: int = 0
    slow_read_delay: float = 0.05
    seed: int = DEMO_SEED


def steady_scenario(requests: int = 400, rate: float = 150.0, seed: int = DEMO_SEED) -> Scenario:
    return Scenario(name="steady-poisson", requests=requests, rate=rate, seed=seed)


def herd_scenario(requests: int = 200) -> Scenario:
    return Scenario(name="thundering-herd", requests=requests, rate=None)


def slow_client_scenario(requests: int = 150) -> Scenario:
    return Scenario(
        name="slow-clients", requests=requests, rate=80.0, slow_every=5, slow_read_delay=0.08
    )


SCENARIOS = {
    "steady": steady_scenario,
    "herd": herd_scenario,
    "slow": slow_client_scenario,
}


# -- outcomes + reporting ----------------------------------------------------------
@dataclass(frozen=True)
class RequestOutcome:
    kind: str
    tenant: str
    status: int  # 0 = transport-level failure (timeout, reset)
    latency: float
    received: int
    slow: bool
    error: str = ""
    #: the server echoed back a different ``X-Request-Id`` than was sent —
    #: a protocol-contract violation counted as its own failure class.
    id_mismatch: bool = False


@dataclass
class ScenarioReport:
    """Aggregate SLO view of one scenario run."""

    scenario: Scenario
    outcomes: list[RequestOutcome]
    wall_seconds: float

    # -- selections -----------------------------------------------------------
    @property
    def completed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if 200 <= o.status < 400]

    @property
    def shed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.status in (429, 503)]

    @property
    def failures(self) -> list[RequestOutcome]:
        """Server faults, transport failures and request-id violations.

        4xx client errors are not failures, and neither is 503: this tier
        only emits 503 as deliberate connection-flood shedding (with
        ``Retry-After``), which :attr:`shed` accounts for.  A response
        that echoed the wrong ``X-Request-Id`` is a failure even when its
        status was healthy — the body cannot be trusted to belong to the
        request.
        """
        return [
            o
            for o in self.outcomes
            if o.status == 0
            or (o.status >= 500 and o.status != 503)
            or o.id_mismatch
        ]

    @property
    def id_mismatches(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.id_mismatch]

    def latencies_ms(self, include_slow: bool = False) -> list[float]:
        """Sorted completion latencies of well-behaved successful requests.

        Slow readers are excluded by default: their latency is the read
        delay they inflicted on themselves, not a server SLO signal.
        """
        samples = [
            o.latency * 1000.0
            for o in self.completed
            if include_slow or not o.slow
        ]
        return sorted(samples)

    # -- headline numbers ------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        lat = self.latencies_ms()
        n = len(self.outcomes)
        completed = len(self.completed)
        shed = len(self.shed)
        failures = len(self.failures)
        return {
            "scenario": self.scenario.name,
            "requests": n,
            "rate_rps": self.scenario.rate,
            "completed": completed,
            "shed": shed,
            "failures": failures,
            "id_mismatches": len(self.id_mismatches),
            "shed_rate": shed / n if n else 0.0,
            "failure_rate": failures / n if n else 0.0,
            "throughput_rps": completed / self.wall_seconds if self.wall_seconds else 0.0,
            "wall_seconds": self.wall_seconds,
            "p50_ms": nearest_rank(lat, 50),
            "p95_ms": nearest_rank(lat, 95),
            "p99_ms": nearest_rank(lat, 99),
            "max_ms": lat[-1] if lat else float("nan"),
            "slow_clients": sum(1 for o in self.outcomes if o.slow),
            "bytes_received": sum(o.received for o in self.outcomes),
            "by_kind": self._by_kind(),
        }

    def _by_kind(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            bucket = out.setdefault(o.kind, {"requests": 0, "completed": 0, "shed": 0, "failures": 0})
            bucket["requests"] += 1
            if 200 <= o.status < 400:
                bucket["completed"] += 1
            if o.status in (429, 503):
                bucket["shed"] += 1
            if o.status == 0 or (o.status >= 500 and o.status != 503):
                bucket["failures"] += 1
        return out

    def summary(self) -> str:
        d = self.as_dict()
        return (
            f"{d['scenario']:<16s} {d['requests']:>5d} req "
            f"{d['throughput_rps']:>7.1f} rps  "
            f"p50 {d['p50_ms']:>7.1f} ms  p95 {d['p95_ms']:>7.1f} ms  "
            f"p99 {d['p99_ms']:>7.1f} ms  "
            f"shed {d['shed_rate']:>5.1%}  fail {d['failures']:d}"
        )


# -- the generator ----------------------------------------------------------------
@dataclass(frozen=True)
class _PlannedRequest:
    at: float  # seconds after scenario start
    kind: str
    tenant: str
    method: str
    target: str
    body: bytes
    slow: bool
    request_id: str = ""


def plan_requests(
    scenario: Scenario, clusters: Sequence[tuple[str, float, float]]
) -> list[_PlannedRequest]:
    """Materialise the arrival schedule + request specs (deterministic)."""
    if not clusters:
        raise ValueError("loadgen needs at least one cluster to aim at")
    rng = random.Random(scenario.seed)
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    planned: list[_PlannedRequest] = []
    t = 0.0
    for i in range(scenario.requests):
        if scenario.rate is not None:
            t += rng.expovariate(scenario.rate)
        kind = rng.choices(kinds, weights)[0]
        tenant = TENANTS[i % len(TENANTS)]
        name, ra, dec = clusters[rng.randrange(len(clusters))]
        ra, dec = round(ra, 4), round(dec, 4)
        body = b""
        method = "GET"
        if kind == "cone":
            target = ConeSearchRequest(ra, dec, round(rng.uniform(0.05, 0.3), 3)).to_url("/cone")
        elif kind == "sia":
            target = SIARequest(ra, dec, round(rng.uniform(0.1, 0.5), 3)).to_url("/sia")
        elif kind == "submit":
            method = "POST"
            target = "/jobs"
            body = json.dumps(
                {
                    "user": tenant,
                    "cluster": name,
                    # a small option rotation: some submissions dedupe into
                    # in-flight/cached derivations, some are genuinely new
                    "options": {"loadgen_seq": i % 8},
                }
            ).encode("utf-8")
        elif kind == "status":
            target = "/queue"
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        slow = bool(scenario.slow_every) and i % scenario.slow_every == 0
        planned.append(
            _PlannedRequest(
                at=t if scenario.rate is not None else 0.0,
                kind=kind,
                tenant=tenant,
                method=method,
                target=target,
                body=body,
                slow=slow,
                # Deterministic per-request id; the server must echo it
                # back verbatim (asserted per response in ``_fire``).
                request_id=f"lg{scenario.seed:x}-{i:05d}",
            )
        )
    return planned


async def _fire(
    host: str, port: int, plan: _PlannedRequest, t0: float, timeout: float, delay: float
) -> RequestOutcome:
    loop = asyncio.get_running_loop()
    await asyncio.sleep(max(0.0, t0 + plan.at - loop.time()))
    headers = [("X-Tenant", plan.tenant)]
    if plan.request_id:
        headers.append(("X-Request-Id", plan.request_id))
    if plan.body:
        headers.append(("Content-Type", "application/json"))
    started = time.monotonic()
    try:
        status, resp_headers, body = await http_request(
            host,
            port,
            plan.method,
            plan.target,
            headers=headers,
            body=plan.body,
            read_delay=delay if plan.slow else 0.0,
            timeout=timeout,
        )
        # The id echo contract holds on every parsed response except the
        # raw connection-flood 503, which is written before any request
        # headers are read.
        echoed = resp_headers.get("x-request-id")
        mismatch = bool(plan.request_id) and (
            echoed != plan.request_id
            if echoed is not None
            else status != 503
        )
        return RequestOutcome(
            kind=plan.kind,
            tenant=plan.tenant,
            status=status,
            latency=time.monotonic() - started,
            received=len(body),
            slow=plan.slow,
            id_mismatch=mismatch,
        )
    except Exception as exc:  # noqa: BLE001 - a dead request is data, not a crash
        return RequestOutcome(
            kind=plan.kind,
            tenant=plan.tenant,
            status=0,
            latency=time.monotonic() - started,
            received=0,
            slow=plan.slow,
            error=f"{type(exc).__name__}: {exc}",
        )


async def run_scenario(
    host: str,
    port: int,
    scenario: Scenario,
    clusters: Sequence[tuple[str, float, float]],
) -> ScenarioReport:
    """Drive one scenario against a live server; returns its report."""
    planned = plan_requests(scenario, clusters)
    t0 = asyncio.get_running_loop().time()
    wall_start = time.monotonic()
    outcomes = await asyncio.gather(
        *(
            _fire(host, port, plan, t0, REQUEST_TIMEOUT, scenario.slow_read_delay)
            for plan in planned
        )
    )
    return ScenarioReport(
        scenario=scenario,
        outcomes=list(outcomes),
        wall_seconds=time.monotonic() - wall_start,
    )


def demo_cluster_targets() -> list[tuple[str, float, float]]:
    """(name, ra, dec) of the demonstration clusters, for aiming queries."""
    from repro.sky.registry_data import DEMONSTRATION_CLUSTERS

    return [(c.name, c.center.ra, c.center.dec) for c in DEMONSTRATION_CLUSTERS]
