"""The workload manager: queued submissions, fair-share dispatch, reuse.

:class:`WorkloadManager` is the long-lived multi-tenant front door the NVO
service shape requires: ``submit(user, cluster, options)`` journals the job
and returns immediately; up to ``max_workers`` job threads drain the queue,
each picking its own next job with the fair-share policy, so several
campaigns run concurrently; the RLS-backed result cache turns resubmitted
or overlapping analyses into zero-compute answers; failed jobs leave
rescue-DAG state behind so a resubmission executes only the remainder; and
the whole queue replays from its JSONL journal after a crash.  Every state
change is ``state.apply(journal.append(...))``: the line is written first,
then the same function crash replay folds over the file advances the live
state, so the two cannot differ.

Telemetry (PR-2 registry) published per pick / job:

* ``scheduler_queue_depth`` (gauge) — jobs waiting;
* ``scheduler_running_jobs`` (gauge) — jobs on a job thread;
* ``scheduler_wait_seconds`` (histogram) — submit-to-dispatch latency;
* ``scheduler_cache_hits_total`` / ``scheduler_cache_misses_total``;
* ``scheduler_jobs_total{state=...}`` — terminal-state counts;
* ``scheduler_job_errors_total{error=...}`` — errors a job thread survived;
* ``scheduler_fair_share_debt{user=...}`` (gauge) — usage above the
  least-served active tenant.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from typing import Any, Callable, Mapping, Sequence

from repro import MAX_WORKERS, telemetry
from repro.core.errors import ResultGoneError, SchedulerError, UnknownJobError
from repro.scheduler.cache import RlsResultCache, SignatureStore, result_cache
from repro.scheduler.job import (
    JobAccounting,
    JobRecord,
    JobSpec,
    JobState,
    derivation_signature,
)
from repro.scheduler.journal import JobJournal, JournalState
from repro.scheduler.policy import AdmissionPolicy, FairShareScheduler
from repro.scheduler.runner import JobFailure, JobOutcome, JobRunner, PortalJobRunner
from repro.resilience.retry import RetryPolicy
from repro.telemetry.tracing import CURRENT_SPAN

#: Seconds a drain (:func:`run_clusters`, the shard chaos run) waits for
#: any one job before calling it wedged.
JOB_WAIT_S = 600.0

#: Every manager's transient-failure requeue: backoff as a not-before
#: gate, rescue nodes banked, at most ``max_attempts`` attempts per job.
REQUEUE_POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.05, max_delay_s=0.2)

#: Slots an attempt's run time is multiplied by in its ``cost``: fair-share
#: usage is slot-seconds (``run_seconds × 4``), the unit every journal has
#: recorded, so old and new lines sum into one ledger.
CHARGED_SLOTS = 4


def _accounting_key(accounting: JobAccounting | None) -> dict[str, Any]:
    """A terminal line's ``accounting``: no key when there is none, so a
    cache hit's ``complete`` line keeps its length."""
    return {"accounting": asdict(accounting)} if accounting is not None else {}


class WorkloadManager:
    """Multi-tenant queue + fair-share job threads over a shared Grid.

    Every manager requeues a transient :class:`JobFailure` under :data:`REQUEUE_POLICY`.
    Its result cache (``cache=None``: :func:`~repro.scheduler.cache.result_cache`'s,
    on disk beside a file journal, else a private in-memory one) is the
    one home of a completed job's bytes: a job completes only once stored.
    The manager is its journal's one writer: construction takes the
    journal's lock before replaying it, so a second manager (or server) on
    a held file fails here, before it serves anything.  :meth:`close`
    releases it.  ``runner=None`` builds a manager that journals
    submissions but never runs them (a benchmark times ``submit`` that
    way); :meth:`start` refuses it.
    """

    def __init__(
        self,
        runner: JobRunner | None,
        *,
        max_workers: int = MAX_WORKERS,
        admission: AdmissionPolicy | None = None,
        cache: RlsResultCache | SignatureStore | None = None,
        journal: JobJournal | None = None,
        clock: Callable[[], float] = time.monotonic,
        shard: str | None = None,
    ) -> None:
        self.runner = runner
        #: shard identity when this manager is one partition of a fleet:
        #: job ids gain a ``<shard>-`` prefix (globally unique across the
        #: fleet's journals), records/gauges carry the shard label.
        self.shard = shard or ""
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.scheduler = FairShareScheduler()
        self.journal = journal if journal is not None else JobJournal(None)
        self.cache = cache or result_cache(self.journal, self.shard, None)
        self._clock = clock
        self._max_workers = max_workers
        self._cond = threading.Condition()
        #: jobs, rescue sets, usage ledger, next seq: advanced only by
        #: :meth:`_transition`.  What follows is process-local and not
        #: journaled (queue order, in-flight signatures).
        self._state = JournalState()
        self._queue: list[str] = []  # job ids, submission order
        self._inflight: dict[str, str] = {}  # signature -> job id
        self._running = 0  # jobs started and not finished: busy job threads
        self._threads: list[threading.Thread] = []  # job threads, idle or busy
        self._stop = True  # no job thread runs before start()
        self._started = False
        self.journal.open()  # the lock comes first: replay sees every earlier line
        try:
            self._recover()
        except BaseException:
            self.journal.close()
            raise

    # -- construction helpers ------------------------------------------------------
    @classmethod
    def for_environment(cls, env: "object", **kwargs: Any) -> "WorkloadManager":
        """Wire a manager onto a :class:`~repro.portal.demo.DemoEnvironment`.

        The result cache is :func:`~repro.scheduler.cache.result_cache`'s:
        the store beside a file journal, else the environment's own
        (the compute service's cache site, registered in the live RLS).
        """
        journal = kwargs.pop("journal", None) or JobJournal(None)
        cache = result_cache(journal, kwargs.get("shard") or "", env)
        return cls(PortalJobRunner(env), cache=cache, journal=journal, **kwargs)

    def _recover(self) -> None:
        """Replay the journal: the replayed state *is* the live state."""
        self._state = self.journal.replay()
        now = self._clock()
        for record in self._state.jobs.values():
            if record.state is JobState.QUEUED:
                # Journal timestamps come from the previous writer's
                # monotonic clock; re-stamp so this process's wait metric
                # measures time since recovery, not cross-boot garbage.
                record.submitted_at = now
                self._queue.append(record.job_id)
        self._publish_gauges_locked()

    def _transition(self, event: str, **payload: Any) -> JobRecord | None:
        """Journal one line, then apply it — the only way state advances
        (write-ahead: a line that failed to append changes nothing).
        Caller holds the lock."""
        return self._state.apply(self.journal.append(event, **payload))

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        """Start dispatching (idempotent)."""
        with self._cond:
            if self._started:
                return
            if self.runner is None:
                raise SchedulerError("cannot start a manager constructed without a runner")
            self._started = True
            self._stop = False
            self._spawn_locked()

    def stop(self) -> None:
        """Stop dispatching; running jobs finish, queued jobs stay queued."""
        with self._cond:
            if not self._started:
                return
            self._stop = True
            self._cond.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join()
        with self._cond:
            self._started = False
            self._threads = []

    def close(self) -> None:
        """Stop, then release the journal; terminal (a restart is a new manager)."""
        self.stop()
        self.journal.close()

    def __enter__(self) -> "WorkloadManager":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the tenant API ---------------------------------------------------------------
    def submit(
        self,
        user: str,
        cluster: str,
        options: Mapping[str, Any] | None = None,
        priority: int = 0,
    ) -> JobRecord:
        """Queue one analysis job; returns its record immediately.

        Raises :class:`~repro.core.errors.QueueFullError` (global
        backpressure) or :class:`~repro.core.errors.QuotaExceededError`
        (per-user admission) without journaling anything.
        """
        spec = JobSpec.create(user, cluster, options, priority)
        signature = derivation_signature(spec)
        with self._cond:
            active = sum(
                1
                for r in self._state.jobs.values()
                if r.spec.user == user and not r.terminal
            )
            with telemetry.trace_span(
                "scheduler.admission", user=user, queue=len(self._queue)
            ):
                self.admission.admit(user, len(self._queue), active)
            # The id is minted from the journal's sequence number (not a
            # per-process counter) so a restarted manager never reuses one;
            # the suffix ties it visibly to its derivation, and a shard
            # prefix keeps ids unique across a fleet's journal set.
            prefix = f"{self.shard}-" if self.shard else ""
            seq = self._state.max_seq + 1
            job_id = f"{prefix}job-{seq:06d}-{signature[4:10]}"
            job = JobRecord(job_id, spec, signature, seq, self._clock(), shard=self.shard)
            with telemetry.trace_span("scheduler.journal", event="submit", job_id=job_id):
                record = self._transition("submit", job=job.as_record())
            assert record is not None
            self._queue.append(job_id)
            # Tie the queued job back to the submitting request's trace, so
            # the span the job thread opens later joins the same trace.
            record.trace_ctx = telemetry.capture_context()
            self._publish_gauges_locked()
            self._spawn_locked()
            self._cond.notify_all()
        telemetry.count("scheduler_submissions_total", user=user)
        return record

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``False`` if it already left the queue."""
        with self._cond:
            record = self._require(job_id)
            if record.state is not JobState.QUEUED:
                return False
            self._transition("cancel", job_id=job_id, finished_at=self._clock())
            self._queue.remove(job_id)
            telemetry.count("scheduler_jobs_total", state="cancelled")
            self._publish_gauges_locked()
            self._cond.notify_all()
            return True

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        with self._cond:
            record = self._require(job_id)
            finished = self._cond.wait_for(lambda: record.terminal, timeout=timeout)
            if not finished:
                raise SchedulerError(f"timed out after {timeout}s waiting for {job_id}")
            return record

    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and nothing is running."""
        with self._cond:
            done = self._cond.wait_for(
                lambda: not self._queue and self._running == 0, timeout=timeout
            )
            if not done:
                raise SchedulerError(f"timed out after {timeout}s draining the queue")

    def result_bytes(self, job_id: str) -> bytes:
        """The merged VOTable a completed job produced, from the result
        cache (a COMPLETED job's bytes were stored before it completed)."""
        with self._cond:
            record = self._require(job_id)
            if record.state is not JobState.COMPLETED:
                raise SchedulerError(
                    f"job {job_id} is {record.state.value}, not completed"
                )
        content = self.cache.lookup(record.signature)
        if content is None:
            raise ResultGoneError(f"result bytes for {job_id} are no longer materialised")
        return content

    # -- introspection -----------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        with self._cond:
            return self._require(job_id)

    def jobs(self) -> list[JobRecord]:
        with self._cond:
            return sorted(self._state.jobs.values(), key=lambda r: r.seq)

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def running_jobs(self) -> int:
        with self._cond:
            return self._running

    def rescue_state(self, signature: str) -> set[str]:
        with self._cond:
            return set(self._state.rescue.get(signature, ()))

    def fair_share_usage(self) -> dict[str, float]:
        """Per-user slot-seconds charged so far (the journal state's ledger)."""
        with self._cond:
            return dict(self._state.usage)

    def fair_share_debts(self) -> dict[str, float]:
        with self._cond:
            users = {r.spec.user for r in self._state.jobs.values()}
            return self.scheduler.debts(users, self._state.usage)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready queue state (the ``repro queue`` verb renders this)."""
        with self._cond:
            return {
                **({"shard": self.shard} if self.shard else {}),
                "queued": len(self._queue),
                "running": self._running,
                "fair_share": self.fair_share_debts(),
                "jobs": [r.view() for r in self.jobs()],
            }

    def _require(self, job_id: str) -> JobRecord:
        record = self._state.jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"no such job {job_id!r}")
        return record

    # -- dispatch ---------------------------------------------------------------------
    def _eligible(self, record: JobRecord) -> bool:
        """May this queued job be dispatched right now?

        Identical in-flight derivations are held back (they will be answered
        by the cache the moment the first one lands), and requeued jobs
        respect their backoff gate.  The job threads are the one concurrency
        bound: a thread that picks has a job to run.
        """
        if record.signature in self._inflight:
            return False
        return record.not_before is None or self._clock() >= record.not_before

    def _spawn_locked(self) -> None:
        """Start one more job thread if a job waits and every thread is busy.

        Never eagerly: each thread keeps its own malloc arena warm, so a
        serial workload must keep reusing the one thread it has.
        """
        threads = len(self._threads)
        all_busy = self._running == threads
        if self._queue and not self._stop and all_busy and threads < self._max_workers:
            thread = threading.Thread(
                target=self._job_thread, name=f"scheduler-job-{threads}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _job_thread(self) -> None:
        """One job slot: pick a job, run it, finish it; repeat until stop()."""
        while True:
            try:
                with self._cond:
                    record = self._pick_locked()
                if record is None:
                    return
                wait = record.wait_seconds
                if wait is not None:
                    telemetry.observe("scheduler_wait_seconds", wait, user=record.spec.user)
                self._run_job(record)
            except Exception as exc:  # noqa: BLE001 - the slot must outlive its job
                # e.g. an append failed at finish: _finish_job re-queued the job.
                telemetry.count("scheduler_job_errors_total", error=type(exc).__name__)

    def _pick_locked(self) -> JobRecord | None:
        """Wait for the next eligible job and start it; ``None`` on stop().

        Picking and waiting share one lock acquisition, so no submit or
        finish (each notifies) can slip between them; only a requeue's
        backoff gate needs a timed wait.
        """
        while not self._stop:
            queued = [self._state.jobs[j] for j in self._queue]
            record = self.scheduler.pick(queued, self._state.usage, self._eligible)
            if record is not None:
                self._transition("start", job_id=record.job_id, started_at=self._clock())
                self._queue.remove(record.job_id)
                self._inflight[record.signature] = record.job_id
                self._running += 1
                self._publish_gauges_locked()
                self._spawn_locked()
                return record
            now = self._clock()
            gates = [r.not_before for r in queued if r.not_before is not None]
            ahead = [gate - now for gate in gates if gate > now]
            self._cond.wait(min(ahead) if ahead else None)
        return None

    # -- the job body (job threads) ------------------------------------------------
    def _run_job(self, record: JobRecord) -> None:
        # Re-attach the submitting request's trace (observability plane):
        # the job span — and everything the runner opens beneath it —
        # then shares the HTTP request's trace id.
        ctx = record.trace_ctx
        token = (
            CURRENT_SPAN.set((ctx.trace_id, ctx.span_id)) if ctx is not None else None
        )
        try:
            self._run_job_traced(record, record.signature)
        finally:
            if token is not None:
                CURRENT_SPAN.reset(token)

    def _run_job_traced(self, record: JobRecord, signature: str) -> None:
        outcome: JobOutcome | None = None
        failure: BaseException | None = None
        cache_hit = False
        with telemetry.trace_span(
            "scheduler.job",
            user=record.spec.user,
            cluster=record.spec.cluster,
            signature=signature,
            job_id=record.job_id,
        ) as span:
            try:
                cached = self.cache.lookup(signature)
                if cached is not None:
                    cache_hit = True
                    telemetry.count("scheduler_cache_hits_total")
                    outcome = JobOutcome(result_bytes=cached)
                else:
                    telemetry.count("scheduler_cache_misses_total")
                    resume = self.rescue_state(signature) or None
                    assert self.runner is not None
                    outcome = self.runner.run(record.spec, resume)
                    try:
                        self.cache.store(signature, outcome.result_bytes)
                    except Exception as exc:  # noqa: BLE001 - COMPLETED means stored
                        raise JobFailure(
                            f"result store failed: {exc}", transient=True,
                            resumed_nodes=outcome.resumed_nodes, accounting=outcome.accounting,
                        ) from exc
            except BaseException as exc:  # noqa: BLE001 - the queue must survive
                outcome, failure = None, exc
            span.set(cache_hit=cache_hit, status="error" if failure else "ok")
        self._finish_job(record, outcome, failure, cache_hit)

    def _finish_job(
        self,
        record: JobRecord,
        outcome: JobOutcome | None,
        failure: BaseException | None,
        cache_hit: bool,
    ) -> None:
        now = self._clock()
        with self._cond:
            try:
                job_id, signature = record.job_id, record.signature
                assert record.started_at is not None
                run_seconds = now - record.started_at
                # What every attempt-ending line carries.  Fair share is
                # charged per attempt, requeued or not.
                ended: dict[str, Any] = {
                    "job_id": job_id,
                    "cost": 0.0 if cache_hit else run_seconds * CHARGED_SLOTS,
                }
                if outcome is not None:
                    # A completed derivation invalidates any stale rescue state.
                    if signature in self._state.rescue:
                        self._transition("rescue", signature=signature, nodes=[])
                    record.not_before = None
                    self._transition(
                        "complete",
                        **ended,
                        finished_at=now,
                        cache_hit=cache_hit,
                        result_lfn=self.cache.lfn_for(signature),
                        resumed_nodes=outcome.resumed_nodes,
                        **_accounting_key(outcome.accounting),
                    )
                    telemetry.count("scheduler_jobs_total", state="completed")
                else:
                    assert failure is not None
                    ended["error"] = str(failure)
                    accounting = None
                    if isinstance(failure, JobFailure):
                        ended["resumed_nodes"] = failure.resumed_nodes
                        accounting = failure.accounting
                        if failure.rescue_nodes:
                            merged = self.rescue_state(signature) | set(
                                failure.rescue_nodes
                            )
                            self._transition(
                                "rescue", signature=signature, nodes=sorted(merged)
                            )
                    if (
                        isinstance(failure, JobFailure)
                        and failure.transient
                        and record.attempts < REQUEUE_POLICY.max_attempts
                    ):
                        # Transient failure: back to the queue with backoff;
                        # the banked rescue nodes make the retry a resume.
                        delay = REQUEUE_POLICY.delay_for(record.attempts, label=job_id)
                        self._transition(
                            "requeue", **ended, attempt=record.attempts, delay=delay
                        )
                        record.not_before = now + delay
                        self._queue.append(job_id)
                        telemetry.count(
                            "scheduler_requeues_total", user=record.spec.user
                        )
                    else:
                        self._transition(
                            "fail", **ended, finished_at=now, **_accounting_key(accounting)
                        )
                        telemetry.count("scheduler_jobs_total", state="failed")
            finally:
                # Queue accounting must survive any journaling/caching error,
                # or this thread would count as busy for good.
                if record.state is JobState.RUNNING:
                    # An append raised, so no line says the attempt ended: it
                    # is interrupted, as crash replay reads it, and runs again
                    # (a finished run's bytes are already in the result cache).
                    self._state.interrupt(record)
                    self._queue.append(record.job_id)
                self._inflight.pop(record.signature, None)
                self._running -= 1
                self._publish_gauges_locked()
                self._cond.notify_all()

    # -- metrics ------------------------------------------------------------------------
    def _publish_gauges_locked(self) -> None:
        """Update gauges; caller holds (or is constructing under) the lock."""
        if not telemetry.enabled():
            return
        labels = {"shard": self.shard} if self.shard else {}
        telemetry.gauge_set(
            "scheduler_queue_depth", float(len(self._queue)), **labels
        )
        telemetry.gauge_set("scheduler_running_jobs", float(self._running), **labels)
        for user, debt in self.fair_share_debts().items():
            telemetry.gauge_set("scheduler_fair_share_debt", debt, user=user, **labels)


def run_clusters(
    env: "object", clusters: Sequence[str], *, max_workers: int
) -> list[tuple[JobRecord, bytes | None]]:
    """Serve one job per cluster on an in-process manager over ``env`` (its
    journal in memory, one tenant) and wait for each, at most
    :data:`JOB_WAIT_S`; returns every job's terminal record and result
    bytes (``None`` unless it completed), in order."""
    manager = WorkloadManager.for_environment(env, max_workers=max_workers)
    with manager:
        records = [manager.submit("campaign", cluster) for cluster in clusters]
        for record in records:
            manager.wait(record.job_id, timeout=JOB_WAIT_S)
    return [
        (r, manager.result_bytes(r.job_id) if r.state is JobState.COMPLETED else None)
        for r in records
    ]
