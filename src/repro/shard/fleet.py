"""The shard fleet coordinator: routing, aggregation, rebalance.

:class:`ShardFleet` is the multi-process form of the workload manager: it
spawns one :mod:`~repro.shard.worker` process per shard, routes every
submission by sky tile (cluster -> :func:`~repro.shard.tiling.tile_for_cluster`
-> :meth:`~repro.shard.ring.ConsistentHashRing.node_for`), and presents
the single-manager facade the serving tier already speaks — ``submit`` /
``job`` / ``jobs`` / ``wait`` / ``snapshot`` / ``queue_depth`` /
``result_bytes`` — so :class:`~repro.serve.app.ServeApp` runs sharded
without a special code path.

Rebalance is the part worth reading.  When a worker dies (detected by a
broken pipe or a reaped process), the coordinator:

1. drops the shard from the ring — its tiles remap to the survivors,
   each moving to exactly one new owner (consistent hashing's bounded
   remapping);
2. replays the dead shard's journal from disk — append-only JSONL with a
   torn-tail-tolerant reader, so even SIGKILL mid-write loses at most the
   half-written line;
3. archives the terminal jobs (their results remain answerable through
   the shared signature store, where every shard stores them) and
   **resubmits** the interrupted ones to the tiles' new owners, keeping an
   old-id -> new-id alias so tenants polling a relocated job never see a
   404;
4. folds the dead shard's fair-share usage into the coordinator's ledger
   so global debts survive the crash.

Because every runner is deterministic and results are keyed by
derivation signature (not by shard), a relocated job either re-derives
byte-identical output or short-circuits on the signature store — the
fleet-wide recovery invariant the chaos ``worker-crash`` profile asserts.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import multiprocessing as mp

from repro import SHARDS, telemetry
from repro.core.errors import ResultGoneError, SchedulerError, UnknownJobError
from repro.scheduler.cache import STORE_DIR, SignatureStore
from repro.scheduler.job import JobRecord, JobState, TERMINAL_STATES
from repro.scheduler.journal import JobJournal, global_fingerprint
from repro.scheduler.policy import AdmissionPolicy, FairShareScheduler
from repro.shard.ring import ConsistentHashRing
from repro.shard.tiling import tile_for_cluster
from repro.shard.worker import (
    WorkerConfig,
    raise_remote,
    record_from_payload,
    worker_main,
)

#: Per-request pipe timeout (and the ready-handshake deadline).  Every op
#: the coordinator issues is non-blocking on the worker side, so a silence
#: this long means death.
REQUEST_TIMEOUT_S = 60.0

#: Poll cadence for wait/drain (coordinator-side; workers stay idle).
POLL_INTERVAL_S = 0.02


@dataclass
class _WorkerHandle:
    """Coordinator-side state for one shard worker."""

    name: str
    config: WorkerConfig
    process: Any
    conn: Any
    lock: threading.Lock
    alive: bool = field(default=True, init=False)


class ShardFleet:
    """Spawn, route, aggregate and heal a set of shard workers."""

    def __init__(
        self,
        data_dir: str | os.PathLike[str],
        shards: int = SHARDS,
        **worker_settings: Any,
    ) -> None:
        """``worker_settings`` are :class:`WorkerConfig`'s (``max_workers``,
        ``clusters``, ...), the same for every shard."""
        if shards < 1:
            raise ValueError(f"a fleet needs at least one shard, got {shards}")
        shard_names = tuple(f"s{i}" for i in range(shards))
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: the policy every worker's manager admits with (workers construct
        #: the same default), exposed so the serving tier sizes its tenant
        #: gate by the bounds that actually apply.
        self.admission = AdmissionPolicy()
        #: every shard's result cache (the store beside its journal); the
        #: coordinator reads a job's bytes here, whichever shard ran it.
        self.store = SignatureStore(self.data_dir / STORE_DIR, owner="")
        self.ring = ConsistentHashRing(shard_names)
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()  # topology + alias map
        self._workers: dict[str, _WorkerHandle] = {}
        self._aliases: dict[str, str] = {}  # relocated old id -> new id
        self._archived: dict[str, JobRecord] = {}  # dead shards' terminal jobs
        self._dead_usage: dict[str, float] = {}  # fair-share ledger of the dead
        self._dead_shards: list[str] = []
        self._configs = {
            name: WorkerConfig(
                shard=name,
                journal_path=str(self.journal_path(name)),
                telemetry_enabled=telemetry.enabled(),
                **worker_settings,
            )
            for name in shard_names
        }
        self._started = False

    # -- lifecycle -------------------------------------------------------------
    def journal_path(self, shard: str) -> Path:
        return self.data_dir / f"journal-{shard}.jsonl"

    def start(self) -> None:
        """Spawn every worker and wait for its ready handshake; if one
        fails, close the ones already up and re-raise its error."""
        with self._lock:
            if self._started:
                return
            try:
                for name, config in self._configs.items():
                    self._spawn(name, config)
            except BaseException:
                self.close()
                raise
            self._started = True

    def _spawn(self, name: str, config: WorkerConfig) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(config, child_conn),
            name=f"shard-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end: EOF surfaces death
        if not parent_conn.poll(REQUEST_TIMEOUT_S):
            process.kill()
            process.join()
            raise SchedulerError(f"shard {name!r} did not come up in {REQUEST_TIMEOUT_S}s")
        ready = parent_conn.recv()
        if not (isinstance(ready, dict) and ready.get("ready")):
            process.kill()
            process.join()
            parent_conn.close()
            if isinstance(ready, dict) and ready.get("ok") is False:
                raise_remote(ready, name)  # the worker could not build its shard
            raise SchedulerError(f"shard {name!r} sent a malformed handshake: {ready!r}")
        self._workers[name] = _WorkerHandle(
            name=name,
            config=config,
            process=process,
            conn=parent_conn,
            lock=threading.Lock(),
        )

    def close(self) -> None:
        """Stop every worker; guaranteed leak-free (kill stragglers)."""
        with self._lock:
            handles = list(self._workers.values())
            self._started = False
        for handle in handles:
            if handle.alive and handle.process.is_alive():
                try:
                    with handle.lock:
                        handle.conn.send({"op": "stop"})
                        handle.conn.poll(5.0)
                except (OSError, EOFError, BrokenPipeError):
                    pass
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardFleet":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- placement -------------------------------------------------------------
    def shard_names(self) -> list[str]:
        with self._lock:
            return [n for n, h in self._workers.items() if h.alive]

    def placement(self, cluster: str) -> tuple[str, str]:
        """(tile id, owning shard) for a cluster under the current ring."""
        tile = tile_for_cluster(cluster)
        with self._lock:
            return tile.tile_id, self.ring.node_for(tile.tile_id)

    # -- the wire --------------------------------------------------------------
    def _request(self, name: str, req: Mapping[str, Any]) -> dict[str, Any]:
        with self._lock:
            handle = self._workers.get(name)
        if handle is None or not handle.alive:
            raise SchedulerError(f"shard {name!r} is not serving")
        try:
            with handle.lock:
                handle.conn.send(dict(req))
                if not handle.conn.poll(REQUEST_TIMEOUT_S):
                    raise EOFError(f"shard {name!r}: no reply in {REQUEST_TIMEOUT_S}s")
                reply = handle.conn.recv()
        except (OSError, EOFError, BrokenPipeError) as exc:
            self._handle_death(name)
            raise SchedulerError(f"shard {name!r} died mid-request: {exc}") from exc
        if not reply.get("ok", False):
            raise_remote(reply, name)
        return reply

    # -- death detection + rebalance -------------------------------------------
    def reap(self) -> list[str]:
        """Detect dead workers and rebalance; returns the shards reaped."""
        with self._lock:
            dead = [
                h.name
                for h in self._workers.values()
                if h.alive and not h.process.is_alive()
            ]
        for name in dead:
            self._handle_death(name)
        return dead

    def kill_worker(self, name: str) -> None:
        """SIGKILL one shard (chaos harness + tests), then rebalance."""
        with self._lock:
            handle = self._workers.get(name)
        if handle is None:
            raise KeyError(f"no shard {name!r}")
        handle.process.kill()
        handle.process.join()
        self._handle_death(name)

    def _handle_death(self, name: str) -> None:
        with self._lock:
            handle = self._workers.get(name)
            if handle is None or not handle.alive:
                return  # already rebalanced
            handle.alive = False
            self._dead_shards.append(name)
            if name in self.ring:
                self.ring.remove_node(name)
            try:
                handle.conn.close()
            except OSError:
                pass
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # pragma: no cover - kill() already sent
            handle.process.kill()
            handle.process.join()
        telemetry.count("shard_worker_deaths_total", shard=name)
        self._rebalance_from(name)

    def _rebalance_from(self, name: str) -> None:
        """Recover a dead shard's jobs from its journal (crash replay)."""
        state = JobJournal(self.journal_path(name)).replay()
        interrupted = state.queued_jobs()
        relocated = 0
        with self._lock:
            for user, cost in state.usage.items():
                self._dead_usage[user] = self._dead_usage.get(user, 0.0) + cost
            for record in state.jobs.values():
                if record.state in TERMINAL_STATES:
                    self._archived[record.job_id] = record
        if not self.shard_names():
            raise SchedulerError(
                f"shard {name!r} died and no survivors remain to rebalance onto"
            )
        for record in interrupted:
            replacement = self.submit(
                record.spec.user,
                record.spec.cluster,
                options=record.spec.options_dict() or None,
                priority=record.spec.priority,
            )
            with self._lock:
                self._aliases[record.job_id] = replacement.job_id
            relocated += 1
        telemetry.count("shard_jobs_relocated_total", amount=float(relocated), **{"from": name})

    # -- routing helpers --------------------------------------------------------
    def _canonical(self, job_id: str) -> str:
        """The id a job now lives under: the end of its alias chain (a job
        relocated twice is two hops from the id its tenant holds)."""
        with self._lock:
            seen = set()
            while job_id in self._aliases:
                if job_id in seen:  # pragma: no cover - alias cycles are a bug
                    raise SchedulerError(f"alias cycle at {job_id!r}")
                seen.add(job_id)
                job_id = self._aliases[job_id]
        return job_id

    def _resolve(self, job_id: str) -> tuple[str, str]:
        """(owning shard, canonical id) for a job id, following aliases."""
        job_id = self._canonical(job_id)
        with self._lock:
            shard = job_id.split("-job-", 1)[0]
            if "-job-" not in job_id or shard not in self._workers:
                raise UnknownJobError(f"no such job {job_id!r}")
        return shard, job_id

    # -- the manager facade -----------------------------------------------------
    def submit(
        self,
        user: str,
        cluster: str,
        options: Mapping[str, Any] | None = None,
        priority: int = 0,
    ) -> JobRecord:
        """Route one submission to its tile's shard; heals on a dead owner."""
        for _ in range(len(self._configs) + 1):
            tile_id, shard = self.placement(cluster)
            try:
                reply = self._request(shard, {
                    "op": "submit",
                    "user": user,
                    "cluster": cluster,
                    "options": dict(options) if options else None,
                    "priority": priority,
                })
            except SchedulerError as exc:
                if "died mid-request" in str(exc) or "is not serving" in str(exc):
                    continue  # ring already healed; re-route to the new owner
                raise
            record = record_from_payload(reply["job"])
            record.extra["tile"] = tile_id
            telemetry.count("shard_routed_jobs_total", shard=shard, tile=tile_id)
            return record
        raise SchedulerError(f"no live shard accepts cluster {cluster!r}")

    def job(self, job_id: str) -> JobRecord:
        canonical = self._canonical(job_id)
        with self._lock:
            archived = self._archived.get(canonical)
        if archived is not None:
            return archived
        shard, canonical = self._resolve(canonical)
        return record_from_payload(self._request(shard, {"op": "job", "job_id": canonical})["job"])

    def jobs(self) -> list[JobRecord]:
        records: dict[str, JobRecord] = {}
        for name in self.shard_names():
            try:
                reply = self._request(name, {"op": "jobs"})
            except SchedulerError:
                continue  # shard died mid-listing; survivors still answer
            for payload in reply["jobs"]:
                record = record_from_payload(payload)
                records[record.job_id] = record
        with self._lock:
            for job_id, record in self._archived.items():
                records.setdefault(job_id, record)
        return sorted(records.values(), key=lambda r: (r.shard, r.seq))

    def cancel(self, job_id: str) -> bool:
        shard, canonical = self._resolve(job_id)
        return bool(self._request(shard, {"op": "cancel", "job_id": canonical})["cancelled"])

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Poll until terminal; survives a mid-wait rebalance via aliases."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.reap()
            try:
                record = self.job(job_id)
            except SchedulerError as exc:
                if isinstance(exc, UnknownJobError):
                    raise
                record = None  # owner died this instant; alias lands next loop
            if record is not None and record.terminal:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise SchedulerError(f"timed out after {timeout}s waiting for {job_id}")
            time.sleep(POLL_INTERVAL_S)

    def result_bytes(self, job_id: str) -> bytes:
        """A completed job's bytes, from the store its shard wrote them to
        before it journaled the job complete (live or dead shard alike)."""
        record = self.job(job_id)
        if record.state is not JobState.COMPLETED:
            raise SchedulerError(f"job {job_id} is {record.state.value}, not completed")
        content = self.store.lookup(record.signature)
        if content is None:
            raise ResultGoneError(f"result bytes for {job_id} are no longer materialised")
        return content

    # -- aggregation ------------------------------------------------------------
    def _sum_over_shards(self, key: str) -> int:
        total = 0
        for name in self.shard_names():
            try:
                total += int(self._request(name, {"op": "health"})[key])
            except SchedulerError:
                continue
        return total

    def queue_depth(self) -> int:
        return self._sum_over_shards("queued")

    def running_jobs(self) -> int:
        return self._sum_over_shards("running")

    def shard_health(self) -> dict[str, Any]:
        """Per-shard liveness + load, for ``/health`` and ``repro top``.

        Reaps first, so polling health doubles as the death detector."""
        self.reap()
        shards: dict[str, Any] = {}
        with self._lock:
            names = list(self._workers)
            dead = list(self._dead_shards)
        for name in names:
            with self._lock:
                handle = self._workers.get(name)
                alive = handle is not None and handle.alive
            if not alive:
                shards[name] = {"shard": name, "alive": False}
                continue
            try:
                health = self._request(name, {"op": "health"})
            except SchedulerError:
                shards[name] = {"shard": name, "alive": False}
                continue
            health.pop("ok", None)
            shards[name] = {**health, "alive": True}
        return {
            "shards": shards,
            "alive": sum(1 for s in shards.values() if s.get("alive")),
            "dead": dead,
            "relocated_jobs": len(self._aliases),
        }

    def fair_share_usage(self) -> dict[str, float]:
        """The *global* ledger: per-user usage summed across every shard
        (live workers report their decayed ledgers; dead shards contribute
        what their journals recorded)."""
        with self._lock:
            totals = dict(self._dead_usage)
        for name in self.shard_names():
            try:
                usage = self._request(name, {"op": "usage"})["usage"]
            except SchedulerError:
                continue
            for user, cost in usage.items():
                totals[user] = totals.get(user, 0.0) + float(cost)
        return totals

    def fair_share_debts(self) -> dict[str, float]:
        usage = self.fair_share_usage()
        return FairShareScheduler().debts(usage, usage)

    def snapshot(self) -> dict[str, Any]:
        """Fleet-wide queue state in the single-manager shape (plus shards)."""
        shard_snaps: dict[str, Any] = {}
        jobs: list[dict[str, Any]] = []
        queued = running = 0
        for name in self.shard_names():
            try:
                snap = self._request(name, {"op": "snapshot"})["snapshot"]
            except SchedulerError:
                continue
            shard_snaps[name] = {
                "queued": snap["queued"],
                "running": snap["running"],
                "jobs": len(snap["jobs"]),
            }
            queued += snap["queued"]
            running += snap["running"]
            jobs.extend(snap["jobs"])
        with self._lock:
            for record in self._archived.values():
                jobs.append(record.view())
        jobs.sort(key=lambda j: (j.get("shard", ""), j.get("seq", 0)))
        return {
            "sharded": True,
            "queued": queued,
            "running": running,
            "fair_share": self.fair_share_debts(),
            "shards": shard_snaps,
            "jobs": jobs,
        }

    # -- telemetry + identity ----------------------------------------------------
    def metrics_dumps(self) -> list[dict[str, Any]]:
        """Every live worker's registry dump (for cross-process merging)."""
        dumps: list[dict[str, Any]] = []
        for name in self.shard_names():
            try:
                dump = self._request(name, {"op": "metrics"})["metrics"]
            except SchedulerError:
                continue
            if dump:
                dumps.append(dump)
        return dumps

    def merged_metrics_text(self) -> str:
        """Coordinator + all workers as one Prometheus exposition."""
        from repro.telemetry.exporters import to_prometheus_text
        from repro.telemetry.metrics import MetricsRegistry

        merged = MetricsRegistry()
        if telemetry.enabled():
            merged.merge(telemetry.get_registry().dump())
        for dump in self.metrics_dumps():
            merged.merge(dump)
        return to_prometheus_text(merged)

    def journal_paths(self) -> list[Path]:
        """Every shard journal ever written by this fleet (dead ones too)."""
        with self._lock:
            return [self.journal_path(name) for name in self._workers]

    def global_fingerprint(self) -> list[tuple[int, str, str, str, str]]:
        """The fleet-wide queue identity (sorted union of shard replays)."""
        return global_fingerprint(p for p in self.journal_paths() if p.exists())

    def cross_shard_hits(self) -> int:
        return self._sum_over_shards("cross_shard_hits")

    def leaked_processes(self) -> list[int]:
        """PIDs of worker processes still alive (must be empty after close)."""
        with self._lock:
            return [
                h.process.pid
                for h in self._workers.values()
                if h.process.pid is not None and h.process.is_alive()
            ]
