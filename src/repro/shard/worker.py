"""The shard worker: one process, one journal, one RLS partition.

``worker_main`` is the child-process entry point the fleet spawns (spawn
context: everything it needs arrives as a picklable :class:`WorkerConfig`).
Inside, the worker is deliberately boring — it builds the same portal
stack ``serve-http`` serves: a demonstration environment and a completely
ordinary :class:`~repro.scheduler.service.WorkloadManager` running
:class:`~repro.scheduler.runner.PortalJobRunner`, whose journal lives at
a shard-private path, whose result cache is the fleet's
:class:`~repro.shard.directory.FleetResultCache` ladder (private RLS
partition first, shared signature directory second), and whose job ids
carry the shard prefix.  It then serves a tiny request/response command
protocol over its end of a ``multiprocessing.Pipe``.

The protocol is synchronous per connection (the coordinator holds one
lock per worker), with every reply a dict carrying ``ok``; failures ship
the exception's class name so the coordinator can re-raise typed errors
(:class:`~repro.core.errors.QuotaExceededError` from a remote shard must
still read as a quota error to the serving tier).

Crash-safety is structural, not defensive: all durable state (journal
lines, signature-store entries) is written append-only or via atomic
rename, so the coordinator recovers a SIGKILLed worker purely from the
filesystem — replay the shard journal, resubmit what was in flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro import SHARD_MAX_WORKERS, SLOTS_PER_JOB, telemetry
from repro.core import errors as core_errors
from repro.scheduler.cache import RlsResultCache
from repro.scheduler.job import JobRecord
from repro.scheduler.journal import JobJournal
from repro.scheduler.service import WorkloadManager
from repro.shard.directory import FleetResultCache, SignatureStore

if TYPE_CHECKING:
    from repro.sky.cluster import ClusterModel


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a shard worker needs, picklable through the spawn context.

    The fleet fills in the first four per shard; the rest are the worker
    settings :class:`~repro.shard.fleet.ShardFleet` relays, declared here
    and nowhere else.
    """

    shard: str
    journal_path: str
    store_root: str
    telemetry_enabled: bool  # the coordinator's telemetry.enabled() when it spawned us
    slots_per_job: int = SLOTS_PER_JOB
    max_workers: int = SHARD_MAX_WORKERS  # concurrent jobs per shard
    fault_profile: str = ""  # "" = fault-free
    clusters: tuple[ClusterModel, ...] = field(default=())  # () = the demonstration set


def _build_manager(config: WorkerConfig, **wiring: Any) -> WorkloadManager:
    """The shard's manager: the same job body and the same slot pool a
    single-manager ``serve-http`` gets."""
    from repro.faults.profiles import get_profile
    from repro.portal.demo import build_demo_environment

    plan = get_profile(config.fault_profile) if config.fault_profile else None
    kwargs: dict[str, Any] = {"fault_plan": plan}
    if config.clusters:
        kwargs["clusters"] = list(config.clusters)
    env = build_demo_environment(**kwargs)
    return WorkloadManager.for_environment(
        env, slots_per_job=config.slots_per_job, max_workers=config.max_workers, **wiring
    )


def _build_cache(config: WorkerConfig) -> FleetResultCache:
    from repro.rls.rls import ReplicaLocationService
    from repro.rls.site import StorageSite

    # The shard's private replica index partition: a full RLS of its own,
    # holding only the signatures this shard materialised.
    site_name = f"{config.shard}-cache"
    local = RlsResultCache(
        ReplicaLocationService(), StorageSite(site_name), site_name
    )
    return FleetResultCache(
        SignatureStore(config.store_root), config.shard, local=local
    )


def record_from_payload(payload: Mapping[str, Any]) -> JobRecord:
    """The inverse of :meth:`JobRecord.view`: the coordinator-side record a
    worker's reply describes (``record_from_payload(r.view()).view() ==
    r.view()``)."""
    record = JobRecord.from_record(payload)
    record.started_at = payload.get("started_at")
    record.finished_at = payload.get("finished_at")
    record.cache_hit = bool(payload.get("cache_hit", False))
    record.result_lfn = str(payload.get("result_lfn", ""))
    record.error = str(payload.get("error", ""))
    record.resumed_nodes = int(payload.get("resumed_nodes", 0))
    for key in ("submitted_ts", "started_ts", "finished_ts"):
        if payload.get(key) is not None:
            record.extra[key] = payload[key]
    return record


class _WorkerServer:
    """The in-process command dispatcher (separated out for unit tests)."""

    def __init__(self, config: WorkerConfig, manager: WorkloadManager,
                 cache: FleetResultCache) -> None:
        self.config = config
        self.manager = manager
        self.cache = cache

    # -- command handlers -----------------------------------------------------
    def op_submit(self, req: Mapping[str, Any]) -> dict[str, Any]:
        record = self.manager.submit(
            req["user"],
            req["cluster"],
            options=req.get("options") or None,
            priority=int(req.get("priority", 0)),
        )
        return {"job": record.view()}

    def op_job(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"job": self.manager.job(req["job_id"]).view()}

    def op_jobs(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"jobs": [r.view() for r in self.manager.jobs()]}

    def op_snapshot(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"snapshot": self.manager.snapshot()}

    def op_cancel(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"cancelled": self.manager.cancel(req["job_id"])}

    def op_result(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"content": self.manager.result_bytes(req["job_id"])}

    def op_usage(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {"usage": self.manager.fair_share_usage()}

    def op_health(self, req: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "shard": self.config.shard,
            "pid": os.getpid(),
            "queued": self.manager.queue_depth(),
            "running": self.manager.running_jobs(),
            "jobs": len(self.manager.jobs()),
            "slots_total": self.manager.leases.total_slots,
            "slots_in_use": self.manager.leases.in_use(),
            "shared_cache_hits": self.cache.shared_hits,
            "cross_shard_hits": self.cache.cross_shard_hits,
        }

    def op_metrics(self, req: Mapping[str, Any]) -> dict[str, Any]:
        dump = telemetry.get_registry().dump() if telemetry.enabled() else {}
        return {"metrics": dump}

    def handle(self, req: Mapping[str, Any]) -> dict[str, Any]:
        op = req.get("op", "")
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}", "kind": "ValueError"}
        try:
            reply = handler(req)
        except BaseException as exc:  # noqa: BLE001 - the worker loop must survive
            return {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        reply["ok"] = True
        return reply


#: Typed errors the coordinator re-raises by name (everything else becomes
#: a plain SchedulerError carrying the remote message).
_RAISABLE = {
    name: getattr(core_errors, name)
    for name in dir(core_errors)
    if isinstance(getattr(core_errors, name), type)
    and issubclass(getattr(core_errors, name), BaseException)
}


def raise_remote(reply: Mapping[str, Any], shard: str) -> None:
    """Re-raise a worker's failure reply as the matching typed exception."""
    kind = str(reply.get("kind", ""))
    message = f"[{shard}] {reply.get('error', 'remote failure')}"
    exc_type = _RAISABLE.get(kind)
    if exc_type is None:
        exc_type = ValueError if kind in ("ValueError", "KeyError") else (
            core_errors.SchedulerError
        )
    raise exc_type(message)


def worker_main(config: WorkerConfig, conn: Any) -> None:
    """Child-process entry point: build the shard stack, serve the pipe."""
    if config.telemetry_enabled:
        telemetry.enable()
    cache = _build_cache(config)
    manager = _build_manager(
        config, cache=cache, journal=JobJournal(config.journal_path), shard=config.shard
    )
    server = _WorkerServer(config, manager, cache)
    manager.start()
    # Ready handshake: the parent blocks on this before routing anything.
    conn.send({"ok": True, "ready": True, "shard": config.shard, "pid": os.getpid()})
    try:
        while True:
            try:
                req = conn.recv()
            except (EOFError, OSError):
                break  # coordinator went away; shut down cleanly
            if not isinstance(req, dict):
                conn.send({"ok": False, "error": "malformed request",
                           "kind": "ValueError"})
                continue
            if req.get("op") == "stop":
                conn.send({"ok": True})
                break
            conn.send(server.handle(req))
    finally:
        manager.stop()
        conn.close()
