"""Wiring helpers: a complete serving stack in one call.

Used by the ``repro serve-http`` / ``repro serve-fleet`` /
``repro loadgen`` CLI verbs, the end-to-end benchmark's server process and
the CI smoke scripts.  Two runner flavours:

* ``"portal"`` (the default everywhere) — the real
  :class:`PortalJobRunner` walking the Figure-5 flow on a demonstration
  environment;
* ``"synthetic"`` — :class:`SyntheticJobRunner`, a test double: a seeded
  sleep plus an eight-row VOTable that is a pure function of the spec.
  Tests, smoke scripts and the ``worker-crash`` chaos profile ask for it
  by name to exercise routing, admission, journaling and recovery without
  paying for morphology.  Its timings measure the sleep, so no number is
  reported from it; performance comes from ``benchmarks/e2e`` on the
  portal runner.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dataclass_field

from repro.portal.demo import build_demo_environment
from repro.scheduler.journal import JobJournal
from repro.scheduler.job import JobSpec
from repro.scheduler.runner import JobOutcome, PortalJobRunner
from repro.scheduler.service import WorkloadManager
from repro.serve.app import ServeApp
from repro.serve.observability import ObservabilityPlane
from repro.serve.server import PortalHttpServer
from repro.votable.model import Field, VOTable
from repro.votable.writer import write_votable


class SyntheticJobRunner:
    """A deterministic, cheap job body: the test double for the real runner.

    The produced VOTable depends only on the spec's cluster and options
    (so result caching and byte-identity assertions behave exactly as with
    real jobs), and the job "runs" for a sleep derived from the spec's
    signature — stable across runs, varied across jobs.
    """

    def __init__(self, base_seconds: float = 0.005, spread_seconds: float = 0.01) -> None:
        self.base_seconds = base_seconds
        self.spread_seconds = spread_seconds

    def run(self, spec: JobSpec, resume_from: set[str] | None) -> JobOutcome:
        key = f"{spec.cluster}|{sorted(spec.options)}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        time.sleep(self.base_seconds + self.spread_seconds * digest[0] / 255.0)
        table = VOTable(
            [
                Field("id", "char"),
                Field("concentration", "double"),
                Field("asymmetry", "double"),
            ],
            name=f"{spec.cluster}-morphology",
            params={"cluster": spec.cluster},
        )
        for i in range(8):
            table.append(
                {
                    "id": f"{spec.cluster}-{i:04d}",
                    "concentration": 1.0 + digest[i + 1] / 64.0,
                    "asymmetry": digest[i + 9] / 512.0,
                }
            )
        return JobOutcome(
            result_bytes=write_votable(table).encode("utf-8"),
            galaxies=len(table),
            valid_measurements=len(table),
        )


@dataclass
class ServingStack:
    """Everything a running serve tier owns, with ordered teardown."""

    env: object
    manager: WorkloadManager
    app: ServeApp
    server: PortalHttpServer
    plane: ObservabilityPlane | None = None
    enable_plane: bool = False
    _started: bool = dataclass_field(default=False, repr=False)

    async def start(self) -> None:
        if self.plane is not None and self.enable_plane:
            self.plane.enable()
        self.manager.start()
        await self.server.start()
        self._started = True

    async def close(self, grace: float = 5.0) -> None:
        """Stop the listener, drain handlers, then the manager and bridge."""
        await self.server.close(grace=grace)
        self.app.bridge.close()
        self.manager.stop()
        if self.plane is not None:
            self.plane.close()
        self._started = False

    async def __aenter__(self) -> "ServingStack":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()


def build_serving_stack(
    *,
    journal_path: str | None = None,
    runner: str = "portal",
    clusters: object = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
    slots_per_job: int = 4,
    observability: bool | None = None,
    access_log_path: str | None = None,
    latency_target_s: float = 0.5,
    **server_options: object,
) -> ServingStack:
    """Build (but do not start) a complete serving stack.

    ``runner="synthetic"`` still builds the demonstration environment —
    the Cone/SIA endpoints always serve real synthetic-sky queries — but
    swaps the job body for :class:`SyntheticJobRunner`.

    ``observability`` selects the plane configuration:

    * ``True`` — plane wired and enabled at :meth:`ServingStack.start`
      (turns telemetry on for span collection);
    * ``None`` (default) — plane wired but left disabled: the production
      shape, paying only the per-request guard test;
    * ``False`` — no plane object at all.
    """
    env = (
        build_demo_environment(clusters=clusters)
        if clusters is not None
        else build_demo_environment()
    )
    journal = JobJournal(journal_path)
    if runner == "portal":
        manager = WorkloadManager.for_environment(
            env,
            journal=journal,
            max_workers=max_workers,
            slots_per_job=slots_per_job,
        )
    elif runner == "synthetic":
        manager = WorkloadManager(
            SyntheticJobRunner(),
            journal=journal,
            max_workers=max_workers,
            slots_per_job=slots_per_job,
        )
    else:
        raise ValueError(f"unknown runner {runner!r}; expected 'portal' or 'synthetic'")
    plane = (
        None
        if observability is False
        else ObservabilityPlane(
            access_log_path=access_log_path, latency_target_s=latency_target_s
        )
    )
    app = ServeApp(env, manager, plane=plane)
    server = PortalHttpServer(app, host=host, port=port, **server_options)  # type: ignore[arg-type]
    return ServingStack(
        env=env,
        manager=manager,
        app=app,
        server=server,
        plane=plane,
        enable_plane=bool(observability),
    )


def build_fleet_serving_stack(
    data_dir: str,
    *,
    shards: int = 4,
    runner: str = "portal",
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 2,
    slots_per_job: int = 4,
    base_seconds: float = 0.005,
    spread_seconds: float = 0.01,
    observability: bool | None = None,
    access_log_path: str | None = None,
    latency_target_s: float = 0.5,
    **server_options: object,
) -> ServingStack:
    """Build (but do not start) a *sharded* serving stack.

    Same HTTP surface as :func:`build_serving_stack`, but the manager slot
    holds a :class:`~repro.shard.fleet.ShardFleet`: submissions fan out to
    per-shard worker processes by sky tile, and ``/queue`` / ``/health`` /
    ``/metrics`` aggregate across the fleet.  The coordinator still builds
    a demonstration environment so the Cone/SIA endpoints serve locally.
    """
    from repro.shard.fleet import ShardFleet

    env = build_demo_environment()
    fleet = ShardFleet(
        data_dir,
        shards=shards,
        runner=runner,
        base_seconds=base_seconds,
        spread_seconds=spread_seconds,
        max_workers=max_workers,
        slots_per_job=slots_per_job,
    )
    plane = (
        None
        if observability is False
        else ObservabilityPlane(
            access_log_path=access_log_path, latency_target_s=latency_target_s
        )
    )
    app = ServeApp(env, fleet, plane=plane)
    server = PortalHttpServer(app, host=host, port=port, **server_options)  # type: ignore[arg-type]
    return ServingStack(
        env=env,
        manager=fleet,  # type: ignore[arg-type] - same facade, fleet-backed
        app=app,
        server=server,
        plane=plane,
        enable_plane=bool(observability),
    )


def ready_line(stack: ServingStack) -> str:
    """The machine-readable line the serve verbs print once listening.

    ``repro serve-http --port 0`` binds an ephemeral port; harnesses (CI,
    load generators, ``repro top`` wrappers) parse this single line instead
    of guessing.  Format: ``repro-serve-ready port=<p> url=<u>[ shards=<n>]``.
    """
    parts = [
        "repro-serve-ready",
        f"port={stack.server.port}",
        f"url={stack.server.url}",
    ]
    shard_names = getattr(stack.manager, "shard_names", None)
    if shard_names is not None:
        parts.append(f"shards={len(shard_names())}")
    return " ".join(parts)
