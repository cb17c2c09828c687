#!/usr/bin/env python
"""CI smoke test for the live observability plane.

Boots an observability-enabled serving stack on an ephemeral port — the
real portal runner over one small generated cluster — drives an open-loop
burst through it, and asserts the plane's contracts end to end:

* every request the tier parsed produced exactly one JSONL access-log
  line (file line count == requests issued == plane counter);
* a job submission's ``X-Trace-Id`` resolves live via
  ``/debug/trace/{id}`` and covers the whole chain (HTTP request →
  admission → journal → executor job), and the exported trace replays
  through ``repro telemetry report --trace-id`` in a second process;
* ``/debug/flight/dump`` writes parseable JSONL with one entry per
  retained trace;
* ``/debug/requests`` and ``/debug/slo`` agree with the burst: zero
  errors and an ``ok`` availability objective; the latency objective
  counts as bad exactly the access-log lines before the ``/debug/slo``
  request that exceeded the target (a long-poll's wait is not latency),
  and reports the state its burn arithmetic gives for those counts;
* ``/metrics`` is a well-formed Prometheus exposition that carries the
  plane's windowed gauges.

What telemetry costs on the real path is the end-to-end benchmark's
``telemetry.enabled_overhead_share`` (``benchmarks/e2e``), not this script.

Usage::

    PYTHONPATH=src python scripts/observability_smoke.py [--requests 150]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.catalog.coords import SkyPosition  # noqa: E402
from repro.serve.harness import build_serving_stack  # noqa: E402
from repro.serve.loadgen import Scenario, http_request, run_scenario  # noqa: E402
from repro.sky.cluster import ClusterModel  # noqa: E402
from repro.telemetry.exporters import parse_prometheus_text  # noqa: E402
from repro.telemetry.slo import FAST_BURN, SLOW_BURN  # noqa: E402

DRAIN_TIMEOUT_S = 60.0

#: The one cluster the stack serves and the burst aims at: small, so a
#: real job is tens of milliseconds and repeats ride the result cache.
CLUSTER = ClusterModel(name="OBS01", center=SkyPosition(150.0, 2.2), redshift=0.05,
                       n_galaxies=12, core_radius_deg=0.04, seed=7, context_image_count=4)


def fail(message: str) -> None:
    print(f"observability smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def burn_state(objective: dict) -> str:
    """The state ``telemetry/slo.py`` must report for these counts."""
    def burn(bad: float, total: float) -> float:
        return (bad / total) / objective["budget"] if total > 0 else 0.0

    short = burn(objective["bad_short"], objective["events_short"])
    long = burn(objective["bad_long"], objective["events_long"])
    if short >= FAST_BURN and long >= FAST_BURN:
        return "page"
    if short >= SLOW_BURN and long >= SLOW_BURN:
        return "warn"
    return "ok"


def check_slo(slo: dict, lines: list[dict]) -> None:
    """Check ``/debug/slo`` against the access-log lines written before it.

    Availability: every one of those lines is an event and none is bad.
    Latency: every line but the smoke's one long-poll (its only
    ``jobs.status`` request) is an event, and the bad ones are exactly
    those slower than the target.  Either way the reported state is the
    one the burn arithmetic gives, so a slow host shows as counts, not as
    a failure."""
    before = lines[: next(i for i, line in enumerate(lines) if line["path"] == "/debug/slo")]
    timed = [line for line in before if line["route"] != "jobs.status"]
    target_ms = slo["latency_target_s"] * 1000.0
    slow = [line for line in timed if line["dur_ms"] > target_ms]
    objectives = {o["objective"]: o for o in slo["objectives"]}
    availability, latency = objectives["availability"], objectives["latency"]
    problems = []
    if availability["state"] != "ok" or availability["bad_long"] != 0:
        problems.append("availability is not ok with 0 bad events")
    if availability["events_long"] != len(before):
        problems.append(f"availability counted {availability['events_long']:g} events, "
                        f"{len(before)} lines were logged before /debug/slo")
    if (latency["events_long"], latency["bad_long"]) != (len(timed), len(slow)):
        problems.append(f"latency counted {latency['bad_long']:g} of {latency['events_long']:g} "
                        f"bad, the log has {len(slow)} of {len(timed)} over {target_ms:g} ms")
    for objective in (availability, latency):
        if objective["state"] != burn_state(objective):
            problems.append(f"{objective['objective']} reports {objective['state']!r}, "
                            f"its counts give {burn_state(objective)!r}")
    worst = max((availability, latency), key=lambda o: ("ok", "warn", "page").index(o["state"]))
    if slo["state"] != worst["state"]:
        problems.append(f"overall state {slo['state']!r}, worst objective {worst['state']!r}")
    if problems:
        for objective in (availability, latency):
            counts = {k: objective[k] for k in ("state", "events_short", "bad_short",
                                                 "events_long", "bad_long")}
            print(f"{objective['objective']}: {counts}", file=sys.stderr)
        print("five slowest logged requests:", file=sys.stderr)
        for line in sorted(before, key=lambda line: -line["dur_ms"])[:5]:
            print(f"  {line['dur_ms']:9.3f} ms {line['method']} {line['path']} "
                  f"({line['route']}, {line['status']})", file=sys.stderr)
        fail("; ".join(problems))


async def run_smoke(requests: int, rate: float, workdir: Path) -> dict:
    access_log = workdir / "access.jsonl"
    flight_dump = workdir / "flight.jsonl"
    trace_export = workdir / "trace.jsonl"
    stack = build_serving_stack(
        clusters=[CLUSTER],
        port=0,
        observability=True,
        access_log_path=str(access_log),
    )
    clusters = [(CLUSTER.name, CLUSTER.center.ra, CLUSTER.center.dec)]
    # No slow readers: an aborted reader can die mid-response and make the
    # issued-vs-logged accounting ambiguous; this smoke is about the plane.
    scenario = Scenario(name="observability-burst", requests=requests, rate=rate)
    issued = 0

    async def request(method: str, target: str, **kwargs):
        nonlocal issued
        issued += 1
        return await http_request(
            stack.server.host, stack.server.port, method, target, **kwargs
        )

    async with stack:
        # -- prime the burst's eight option sets (loadgen's ``loadgen_seq``) ----
        # so its submissions ride the result cache: the SLO tracker times the
        # burst, and real jobs running beside it share the interpreter lock
        # with the event loop (under a line tracer, enough to miss the
        # latency objective).  Through the manager, not HTTP, so the
        # access-log accounting below counts only the requests issued.
        primed = [
            stack.manager.submit("prime", CLUSTER.name, {"loadgen_seq": seq})
            for seq in range(8)
        ]
        for record in primed:
            await asyncio.to_thread(stack.manager.wait, record.job_id, DRAIN_TIMEOUT_S)

        # -- the burst ----------------------------------------------------------
        report = await run_scenario(
            stack.server.host, stack.server.port, scenario, clusters
        )
        issued += requests
        d = report.as_dict()
        print(report.summary())
        if d["failures"]:
            fail(f"{d['failures']} request(s) failed (incl. id echo) in the burst")

        # -- one traced job submission, end to end ------------------------------
        # After the burst, so the healthy churn cannot evict it from the
        # flight recorder's completed ring before the dump below.
        status, headers, body = await request(
            "POST",
            "/jobs",
            body=json.dumps(
                {"user": "smoke", "cluster": clusters[0][0], "options": {}}
            ).encode(),
            headers=[("Content-Type", "application/json")],
        )
        if status != 202:
            fail(f"job submit returned {status}, expected 202")
        trace_id = headers.get("x-trace-id", "")
        if not trace_id:
            fail("submit response carried no X-Trace-Id header")
        job_id = json.loads(body)["job_id"]
        status, _, body = await request("GET", f"/jobs/{job_id}?wait=20")
        if status != 200 or json.loads(body)["state"] != "completed":
            fail(f"traced job did not complete: status={status} body={body[:200]!r}")

        # -- the sampled trace resolves live ------------------------------------
        status, _, body = await request("GET", f"/debug/trace/{trace_id}")
        if status != 200:
            fail(f"/debug/trace/{trace_id} returned {status}")
        entry = json.loads(body)
        names = {span["name"] for span in entry["spans"]}
        needed = {"serve.request", "scheduler.admission", "scheduler.journal", "scheduler.job"}
        if not needed <= names:
            fail(f"trace {trace_id} is missing spans: {sorted(needed - names)}")
        if any(span["trace"] != trace_id for span in entry["spans"]):
            fail(f"trace {trace_id} contains foreign spans")

        # -- flight dump --------------------------------------------------------
        status, _, body = await request(
            "POST",
            "/debug/flight/dump",
            body=json.dumps({"path": str(flight_dump)}).encode(),
        )
        if status != 200:
            fail(f"/debug/flight/dump returned {status}")
        dumped = json.loads(body)["traces"]

        # -- debug + slo sanity --------------------------------------------------
        status, _, body = await request("GET", "/debug/requests")
        snapshot = json.loads(body)
        status, _, body = await request("GET", "/debug/slo")
        slo = json.loads(body)  # checked against the access log below

        # -- the scrape: every line parses, the plane's gauges are in it ----------
        status, _, body = await request("GET", "/metrics")
        if status != 200:
            fail(f"/metrics returned {status}")
        try:
            families = parse_prometheus_text(body.decode("utf-8"))
        except ValueError as exc:
            fail(f"/metrics is not a valid exposition: {exc}")
        if "serve_request_rate" not in families:
            fail("/metrics lacks the plane's serve_request_rate gauge")

        # -- drain, then export the tracer for offline replay --------------------
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while stack.manager.queue_depth() or stack.manager.running_jobs():
            if time.monotonic() > deadline:
                fail("queue failed to drain")
            await asyncio.sleep(0.1)
        telemetry.get_tracer().export_jsonl(trace_export)

    # -- access log: one line per parsed request -------------------------------
    lines = [
        json.loads(line)
        for line in access_log.read_text().splitlines()
        if line.strip()
    ]
    if len(lines) != issued:
        fail(f"access log has {len(lines)} line(s), {issued} request(s) were issued")
    if snapshot["access_log_count"] > issued:
        fail(
            f"plane counted {snapshot['access_log_count']} accesses, "
            f"only {issued} were issued"
        )
    for line in lines:
        for key in ("ts", "method", "path", "status", "trace", "request_id", "dur_ms"):
            if key not in line:
                fail(f"access-log line missing {key!r}: {line}")
    check_slo(slo, lines)

    # -- flight dump parses as one JSON object per retained trace ----------------
    dump_lines = [
        json.loads(line)
        for line in flight_dump.read_text().splitlines()
        if line.strip()
    ]
    if len(dump_lines) != dumped:
        fail(f"flight dump has {len(dump_lines)} line(s), endpoint said {dumped}")
    if not any(line["trace"] == trace_id for line in dump_lines):
        fail(f"flight dump does not retain the sampled trace {trace_id}")

    # -- the same trace replays offline in a second process ----------------------
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "telemetry", "report",
            str(trace_export), "--trace-id", trace_id,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if proc.returncode != 0:
        fail(
            f"repro telemetry report --trace-id exited {proc.returncode}: "
            f"{proc.stderr[-500:]}"
        )
    if "serve.request" not in proc.stdout:
        fail("offline report does not mention the serve.request span")

    return {
        "issued": issued,
        "access_lines": len(lines),
        "dumped_traces": dumped,
        "trace_id": trace_id,
        "burst": d,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=150, help="burst size")
    parser.add_argument("--rate", type=float, default=120.0, help="arrival rate (rps)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        summary = asyncio.run(run_smoke(args.requests, args.rate, Path(tmp)))
    print(
        f"observability smoke OK: {summary['issued']} request(s) issued, "
        f"{summary['access_lines']} access-log line(s), trace "
        f"{summary['trace_id']} resolved live and replayed offline, "
        f"{summary['dumped_traces']} trace(s) in the flight dump"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
