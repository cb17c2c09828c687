"""Wiring helpers: a complete serving stack in one call.

Used by the ``repro serve-http`` / ``repro serve-fleet`` CLI verbs, the
end-to-end benchmark's server process and the CI smoke scripts.  The job
body is always the real :class:`~repro.scheduler.runner.PortalJobRunner`
walking the Figure-5 flow on a demonstration environment (``clusters=``
picks which clusters that environment serves).  In-process tests may hand
:func:`build_serving_stack` a runner *object* instead; the product never
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import MAX_WORKERS, SHARDS
from repro.portal.demo import build_demo_environment
from repro.scheduler.journal import JobJournal
from repro.scheduler.runner import JobRunner
from repro.scheduler.service import WorkloadManager
from repro.serve.app import ServeApp
from repro.serve.observability import ObservabilityPlane
from repro.telemetry.slo import LATENCY_TARGET_S
from repro.serve.server import PortalHttpServer


@dataclass
class ServingStack:
    """Everything a running serve tier owns, with ordered teardown."""

    env: object
    manager: WorkloadManager
    app: ServeApp
    server: PortalHttpServer
    plane: ObservabilityPlane
    enable_plane: bool

    async def start(self) -> None:
        if self.enable_plane:
            self.plane.enable()
        self.manager.start()
        await self.server.start()

    async def close(self, grace: float = 5.0) -> None:
        """Stop the listener, drain handlers, then close the manager."""
        await self.server.close(grace=grace)
        self.manager.close()
        self.plane.close()

    async def __aenter__(self) -> "ServingStack":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()


def _assemble(
    env: object,
    manager: object,
    *,
    observability: bool = False,
    access_log_path: str | None = None,
    latency_target_s: float = LATENCY_TARGET_S,
    **server_options: object,
) -> ServingStack:
    """Plane -> app -> server around a manager-shaped object.

    The plane is always wired; ``observability=True`` also enables it at
    :meth:`ServingStack.start` (turns telemetry on for span collection).
    Left off — the production shape — a request pays only the guard test.
    ``server_options`` (``host``, ``port``, the limits) go to
    :class:`PortalHttpServer`.
    """
    plane = ObservabilityPlane(
        access_log_path=access_log_path, latency_target_s=latency_target_s
    )
    app = ServeApp(env, manager, plane=plane)
    server = PortalHttpServer(app, **server_options)  # type: ignore[arg-type]
    return ServingStack(env, manager, app, server, plane, enable_plane=observability)  # type: ignore[arg-type]


def build_serving_stack(
    *,
    journal_path: str | None = None,
    runner: str | JobRunner = "portal",
    clusters: object = None,
    max_workers: int = MAX_WORKERS,
    **stack_options: object,
) -> ServingStack:
    """Build (but do not start) a complete serving stack.

    ``runner`` is a test seam: ``"portal"`` (what every product caller
    gets) wires :meth:`WorkloadManager.for_environment`; a runner object is
    handed to :class:`WorkloadManager` as it is, in front of the same
    demonstration environment's Cone/SIA endpoints.  ``stack_options`` are
    :func:`_assemble`'s.
    """
    if isinstance(runner, str) and runner != "portal":
        raise ValueError(f"unknown runner {runner!r}; the only job body is 'portal'")
    env = (
        build_demo_environment(clusters=clusters)
        if clusters is not None
        else build_demo_environment()
    )
    sizing = {"journal": JobJournal(journal_path), "max_workers": max_workers}
    if isinstance(runner, str):
        manager = WorkloadManager.for_environment(env, **sizing)
    else:
        manager = WorkloadManager(runner, **sizing)
    return _assemble(env, manager, **stack_options)


def build_fleet_serving_stack(
    data_dir: str, *, shards: int = SHARDS, **options: object
) -> ServingStack:
    """Build (but do not start) a *sharded* serving stack.

    Same HTTP surface as :func:`build_serving_stack`, but the manager slot
    holds a :class:`~repro.shard.fleet.ShardFleet`: submissions fan out to
    per-shard worker processes by sky tile, and ``/queue`` / ``/health`` /
    ``/metrics`` aggregate across the fleet.  The coordinator still builds
    a demonstration environment so the Cone/SIA endpoints serve locally.
    ``options`` naming a :class:`~repro.shard.worker.WorkerConfig` field
    (``max_workers``, ``clusters``, ...) go to the workers, the rest to
    :func:`_assemble`.
    """
    from repro.shard.fleet import ShardFleet
    from repro.shard.worker import WorkerConfig

    worker = {k: options.pop(k) for k in list(options) if k in WorkerConfig.__dataclass_fields__}
    fleet = ShardFleet(data_dir, shards=shards, **worker)
    return _assemble(build_demo_environment(), fleet, **options)


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
