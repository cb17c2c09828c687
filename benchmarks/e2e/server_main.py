"""The server child: a real ``PortalJobRunner``-backed serving stack.

Started by ``run.py`` as ``python3 server_main.py <spec.json>`` with BLAS
threads pinned.  Protocol on stdout/stdin, one JSON object per line:

* after listening: ``{"ready": true, "port": ..., "t_main": ..., ...}`` with
  wall-clock stage timestamps (the parent subtracts its spawn time);
* on a ``mark`` line: the counters so far (the parent marks the end of
  priming, so the timed phase is the difference to the final line);
* on ``stop`` or end of input: final counters, then a clean shutdown.
"""

from __future__ import annotations

import time

T_MAIN = time.time()

import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import inputs  # noqa: E402
from repro.serve.harness import ServingStack, build_serving_stack  # noqa: E402

T_IMPORTED = time.time()


def vm_hwm_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def counters(stack: ServingStack) -> dict[str, float]:
    """Path-verification counts and volumes, all read from public state."""
    env = stack.env
    requests = list(env.compute_service.requests.values())
    planned = [r.plan for r in requests if r.plan is not None]
    reports = [r.report for r in requests if r.report is not None]
    meter = env.meter
    return {
        "requests": len(requests),
        "short_circuited": sum(1 for r in requests if r.short_circuited),
        "planned": len(planned),
        "dag_nodes": sum(len(p.concrete) for p in planned),
        "abstract_jobs": sum(len(p.abstract) for p in planned),
        "pruned_jobs": sum(len(p.reduction.pruned_jobs) for p in planned),
        "failed_or_retried_nodes": sum(
            r.retries + len(r.failed_nodes) + len(r.unrunnable_nodes) for r in reports
        ),
        "images_downloaded": sum(r.images_downloaded for r in requests),
        "bytes_downloaded": sum(r.bytes_downloaded for r in requests),
        "service_calls": sum(
            meter.count(category)
            for category in meter.breakdown()
            if category not in ("status-poll", "retry-backoff")
        ),
        "vm_hwm_kb": vm_hwm_kb(),
    }


def say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(spec: dict) -> None:
    clusters = [inputs.cluster_from_dict(d) for d in spec["clusters"]]
    stack = build_serving_stack(
        journal_path=spec["journal"],
        runner="portal",
        clusters=clusters,
        max_workers=spec["max_workers"],
    )
    t_built = time.time()
    await stack.start()
    try:
        say(
            {
                "ready": True,
                "port": stack.server.port,
                "t_main": T_MAIN,
                "t_imported": T_IMPORTED,
                "t_built": t_built,
                "t_listening": time.time(),
            }
        )
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "mark":
                say({"mark": counters(stack)})
            elif command in ("stop", ""):
                say({"final": counters(stack)})
                break
    finally:
        await stack.close()


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    asyncio.run(serve(spec))


if __name__ == "__main__":
    main()
