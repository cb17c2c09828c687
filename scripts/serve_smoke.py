#!/usr/bin/env python
"""CI smoke test for the asyncio serving tier.

Boots a complete journaled serving stack on an ephemeral port — the real
portal runner over two small generated clusters — fires a mixed-tenant
200-request open-loop burst at it, and asserts the serving contract end
to end (latency is printed, not gated: ``benchmarks/e2e`` measures the
real path's latency).  The burst's submissions rotate over eight option
sets per cluster, so after the first job of each signature they ride the
result cache:

* zero 5xx / transport failures (shed 429/503 responses are fine — that
  is the designed overload behaviour, and every shed response must carry
  ``Retry-After``);
* submitted jobs drain, and ``repro queue --json`` (run as a real
  subprocess against the same journal) agrees the queue is drained;
* shutdown is leak-free: no surviving asyncio tasks, no open handler
  connections, and the listening socket actually closed.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--requests 200] [--rate 150]

Exits nonzero (with a diagnostic) on any violation.
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

from repro.catalog.coords import SkyPosition  # noqa: E402
from repro.serve.harness import build_serving_stack  # noqa: E402
from repro.serve.loadgen import Scenario, http_request, run_scenario  # noqa: E402
from repro.sky.cluster import ClusterModel  # noqa: E402

DRAIN_TIMEOUT_S = 60.0

#: The clusters the stack serves and the burst aims at: small, so a real
#: job is tens of milliseconds.
CLUSTERS = [
    ClusterModel(name=name, center=SkyPosition(ra, dec), redshift=0.05,
                 n_galaxies=12, core_radius_deg=0.04, seed=7, context_image_count=4)
    for name, ra, dec in (("SMK01", 150.0, 2.2), ("SMK02", 201.0, -11.0))
]


def fail(message: str) -> None:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


async def run_smoke(requests: int, rate: float, journal_path: Path) -> None:
    stack = build_serving_stack(
        clusters=CLUSTERS, journal_path=str(journal_path), port=0
    )
    clusters = [(c.name, c.center.ra, c.center.dec) for c in CLUSTERS]
    scenario = Scenario(
        name="smoke-burst",
        requests=requests,
        rate=rate,
        slow_every=10,  # a sprinkling of slow readers, as production would see
        slow_read_delay=0.05,
    )

    async with stack:
        host, port = stack.server.host, stack.server.port

        # -- liveness + a probe of the shed path's Retry-After contract ------
        status, _, body = await http_request(host, port, "GET", "/health")
        if status != 200:
            fail(f"/health returned {status}, expected 200")
        status, headers, _ = await http_request(
            host, port, "POST", "/jobs", body=b"{not json",
            headers=[("Content-Type", "application/json")],
        )
        if status != 400:
            fail(f"malformed submit returned {status}, expected 400")

        # -- the burst --------------------------------------------------------
        report = await run_scenario(host, port, scenario, clusters)
        d = report.as_dict()
        print(report.summary())
        if d["failures"]:
            worst = [o for o in report.failures][:3]
            fail(
                f"{d['failures']} failed request(s); first: "
                + "; ".join(f"{o.kind} status={o.status} {o.error}" for o in worst)
            )
        if d["completed"] == 0:
            fail("no request completed")

        # every shed response must have carried Retry-After — probe the gate
        # directly by flooding one tenant past its quota
        sheds = await asyncio.gather(
            *(
                http_request(
                    host, port, "GET", "/cone?RA=201.0&DEC=-11.0&SR=0.2",
                    headers=[("X-Tenant", "hog")],
                )
                for _ in range(64)
            ),
            return_exceptions=True,
        )
        for item in sheds:
            if isinstance(item, Exception):
                continue
            status, headers, _ = item
            if status in (429, 503) and "retry-after" not in headers:
                fail(f"shed response {status} missing Retry-After header")

        # -- jobs drain, then the CLI agrees ----------------------------------
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while stack.manager.queue_depth() or stack.manager.running_jobs():
            if time.monotonic() > deadline:
                fail(
                    f"queue failed to drain in {DRAIN_TIMEOUT_S:.0f}s: "
                    f"{stack.manager.queue_depth()} queued, "
                    f"{stack.manager.running_jobs()} running"
                )
            await asyncio.sleep(0.1)
        submitted = len(stack.manager.jobs())

    # -- post-shutdown: leak-free ---------------------------------------------
    current = asyncio.current_task()
    stray = [t for t in asyncio.all_tasks() if t is not current and not t.done()]
    if stray:
        fail(f"{len(stray)} asyncio task(s) survived shutdown: {stray[:5]}")
    if stack.server.connections():
        fail(f"{stack.server.connections()} handler connection(s) survived shutdown")
    try:
        _, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=2.0
        )
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass  # listener is down, as it must be
    else:
        writer.close()
        fail(f"port {port} still accepting connections after shutdown")

    # -- repro queue --json from a second process ------------------------------
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "queue", "--json", "--journal", str(journal_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if proc.returncode != 0:
        fail(f"repro queue --json exited {proc.returncode}: {proc.stderr[-500:]}")
    payload = json.loads(proc.stdout)
    if not payload["drained"]:
        fail(f"queue --json reports drained=false: counts={payload['counts']}")
    if len(payload["jobs"]) != submitted:
        fail(
            f"queue --json replayed {len(payload['jobs'])} job(s), "
            f"manager saw {submitted}"
        )

    print(
        f"serve smoke OK: {d['requests']} requests "
        f"({d['completed']} completed, {d['shed']} shed, 0 failed), "
        f"p99 {d['p99_ms']:.1f} ms, {submitted} job(s) journaled and drained, "
        "shutdown leak-free"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200, help="burst size")
    parser.add_argument("--rate", type=float, default=150.0, help="arrival rate (rps)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(
            run_smoke(args.requests, args.rate, Path(tmp) / "serve-journal.jsonl")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
