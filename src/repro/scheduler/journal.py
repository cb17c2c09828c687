"""The persistent submission journal: JSONL append + the one job state machine.

Every queue transition is one appended line, and :meth:`JournalState.apply`
is the only code that turns a line into state: the live
:class:`~repro.scheduler.service.WorkloadManager` advances by applying the
line it has just written (write-ahead), crash replay folds the same
function over the file, so a live queue and its replay cannot differ.  A
service killed mid-queue restarts with:

* every submitted-but-unfinished job back in the queue, original order —
  jobs that were RUNNING at the crash are requeued (their side effects are
  recoverable through the result cache / rescue state, never through the
  journal);
* terminal jobs (completed / failed / cancelled) on record, so a replayed
  queue neither loses nor duplicates work;
* rescue-DAG state per derivation signature, so a resubmission after a
  crash still resumes instead of recomputing;
* per-user usage — every attempt's cost, failed and requeued ones
  included — so fair-share debts survive the restart.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.errors import SchedulerError
from repro.scheduler.job import JobRecord, JobState

_Q, _R = JobState.QUEUED, JobState.RUNNING

#: The job state machine: event -> (states the job may be in, state it
#: moves to).  ``submit`` (the job must be new) and ``rescue`` (keyed by
#: derivation signature, not by job) complete the vocabulary; any other
#: event name is rejected at append and at replay.
#:
#: In a journal RUNNING also means *interrupted*: the writer that journaled
#: ``start`` may have died, and the restarted one holds the job QUEUED
#: (:meth:`JournalState.interrupt` writes no line).  So ``apply`` reads an
#: event legal from QUEUED, arriving for a RUNNING job, as "interrupted,
#: then the event" — the stream a recovered manager writes replays to what
#: that manager held.
TRANSITIONS: dict[str, tuple[frozenset[JobState], JobState]] = {
    "start": (frozenset({_Q}), _R),
    "requeue": (frozenset({_R}), _Q),
    "complete": (frozenset({_R}), JobState.COMPLETED),
    "fail": (frozenset({_R}), JobState.FAILED),
    "cancel": (frozenset({_Q}), JobState.CANCELLED),
}

#: Event vocabulary (anything else is rejected at append and at replay).
EVENTS = ("submit", "rescue", *TRANSITIONS)


class JobJournal:
    """Append-only JSONL journal of queue transitions.

    ``path=None`` keeps the journal in memory only — same API, no
    persistence (unit tests, ephemeral managers).
    """

    def __init__(self, path: str | os.PathLike[str] | None = None, fsync: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._memory: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._tail_checked = self.path is None

    def append(self, event: str, **payload: Any) -> dict[str, Any]:
        """Record one transition; returns the journaled line exactly as a
        replay will read it (JSON round-tripped: tuples are lists, keys are
        strings), so applying it live and replaying it cannot differ.

        Only the event *name* is validated here; whether the transition is
        legal for the job is :meth:`JournalState.apply`'s business.
        """
        if event not in EVENTS:
            raise SchedulerError(f"unknown journal event {event!r}; expected one of {EVENTS}")
        encoded = json.dumps({"ts": time.time(), "event": event, **payload}, sort_keys=True)
        line = json.loads(encoded)
        with self._lock:
            if self.path is not None:
                if not self._tail_checked:
                    self._repair_tail()
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(encoded + "\n")
                    if self.fsync:
                        fh.flush()
                        os.fsync(fh.fileno())
            else:
                self._memory.append(line)
        return line

    def _repair_tail(self) -> None:
        """Before this handle's first append, cut a torn tail off the file.

        A writer killed mid-append leaves a fragment after the last newline;
        :meth:`events` drops it, but appending behind it would fuse the next
        record onto the fragment and corrupt the journal for good.  The
        fragment goes (replay never saw it); a final record that is whole
        and only lost its newline is kept and terminated.
        """
        self._tail_checked = True
        assert self.path is not None
        if not self.path.exists():
            return
        with open(self.path, "rb+") as fh:
            data = fh.read()
            fragment = data[data.rfind(b"\n") + 1 :]
            if not fragment.strip():
                return
            try:
                json.loads(fragment)
            except ValueError:
                fh.truncate(len(data) - len(fragment))
            else:
                fh.write(b"\n")

    def events(self) -> list[dict[str, Any]]:
        """All journaled lines, oldest first.

        A half-written *final* line is tolerated and dropped: a worker
        process SIGKILLed mid-append leaves at most one truncated record at
        EOF, and crash replay must recover the prefix rather than explode.
        Corruption anywhere else in the file is still an error.
        """
        with self._lock:
            if self.path is None:
                return list(self._memory)
            if not self.path.exists():
                return []
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = [raw.strip() for raw in fh]
        lines = [raw for raw in lines if raw]
        out: list[dict[str, Any]] = []
        for i, raw in enumerate(lines):
            try:
                out.append(json.loads(raw))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail from a killed writer: replay the prefix
                raise SchedulerError(
                    f"{self.path}: corrupt journal line {i + 1}: {raw[:80]!r}"
                ) from None
        return out

    def replay(self) -> "JournalState":
        """Rebuild manager state from the journal."""
        return replay_events(self.events())


@dataclass
class JournalState:
    """The queue's state: what a replay recovers and what a live manager holds."""

    #: job id -> record, in original submission order.
    jobs: dict[str, JobRecord] = field(default_factory=dict, init=False)
    #: derivation signature -> node ids a failed run completed (rescue DAG).
    rescue: dict[str, set[str]] = field(default_factory=dict, init=False)
    #: per-user accumulated usage (slot-seconds): the fair-share ledger.
    usage: dict[str, float] = field(default_factory=dict, init=False)
    #: highest seq seen, so new submissions continue the ordering.
    max_seq: int = field(default=-1, init=False)

    def apply(self, line: Mapping[str, Any]) -> JobRecord | None:
        """Advance by one journal line — *the* transition function.

        The only code that assigns a record's ``state``, ``attempts``,
        ``started_at``, ``finished_at``, ``cache_hit``, ``result_lfn``,
        ``error``, ``resumed_nodes`` and ``extra`` stamps, or touches
        ``rescue``, ``usage`` and ``max_seq``.  Raises
        :class:`SchedulerError` (naming the job) on a line :data:`TRANSITIONS`
        does not allow from the job's current state, leaving the state
        untouched.  Returns the job's record (``None`` for ``rescue``).
        """
        event, ts = line.get("event"), line.get("ts")
        if event == "rescue":
            nodes = set(line.get("nodes", ()))
            if nodes:
                self.rescue[line["signature"]] = nodes
            else:
                self.rescue.pop(line["signature"], None)
            return None
        if event == "submit":
            record = JobRecord.from_record(line["job"])
            if record.job_id in self.jobs:
                raise SchedulerError(f"journal re-submits job {record.job_id!r}")
            record.state = JobState.QUEUED
            if ts is not None:
                record.extra["submitted_ts"] = ts
            self.jobs[record.job_id] = record
            self.max_seq = max(self.max_seq, record.seq)
            return record
        if event not in TRANSITIONS:
            raise SchedulerError(f"journal contains unknown event {event!r}")
        allowed, target = TRANSITIONS[event]
        job_id = line["job_id"]
        record = self.jobs.get(job_id)
        if record is None:
            raise SchedulerError(f"journal {event!r} for unknown job {job_id!r}")
        interrupted = record.state is _R and _Q in allowed
        if record.state not in allowed and not interrupted:
            raise SchedulerError(
                f"journal {event!r} for job {job_id!r} in state "
                f"{record.state.value!r} (legal from "
                f"{sorted(s.value for s in allowed)})"
            )
        cost = float(line.get("cost", 0.0))
        if cost < 0:
            raise SchedulerError(f"journal {event!r} for job {job_id!r}: negative cost {cost}")
        if interrupted:
            self.interrupt(record)
        record.state = target
        if event == "start":
            record.started_at = line.get("started_at", ts)
            record.extra["started_ts"] = ts
            record.attempts += 1
        elif event == "requeue":
            # Backoff gates are process-local monotonic time and do not replay.
            record.started_at = record.finished_at = None
        else:  # terminal
            record.finished_at = line.get("finished_at", ts)
            record.extra["finished_ts"] = ts
        if event in ("complete", "fail", "requeue"):
            # An attempt ended: fair share is charged per attempt, not per job.
            user = record.spec.user
            self.usage[user] = self.usage.get(user, 0.0) + cost
            record.resumed_nodes = int(line.get("resumed_nodes", record.resumed_nodes))
            record.error = "" if event == "complete" else line.get("error", record.error)
        if event == "complete":
            record.cache_hit = bool(line.get("cache_hit", False))
            record.result_lfn = line.get("result_lfn", "")
            if "cache_store_error" in line:
                record.extra["cache_store_error"] = line["cache_store_error"]
        return record

    def interrupt(self, record: JobRecord) -> None:
        """The one rule that writes no line: a RUNNING job whose attempt can
        no longer journal its end (the writer died, or the append raised)
        goes back to the queue; the interrupted attempt stays counted."""
        record.state = JobState.QUEUED
        record.started_at = None

    def queued_jobs(self) -> list[JobRecord]:
        """Jobs a restarted service must run: QUEUED or interrupted RUNNING,
        in submission order."""
        return [
            record
            for record in self.jobs.values()
            if record.state in (JobState.QUEUED, JobState.RUNNING)
        ]

    def fingerprint(self) -> list[tuple[int, str, str, str, str]]:
        """Order-sensitive queue identity: (seq, job id, user, cluster, state).

        Two replays of the same journal — or a live queue and its replay —
        must produce identical fingerprints; the CI concurrency smoke job
        asserts exactly this.
        """
        return [
            (r.seq, r.job_id, r.spec.user, r.spec.cluster, r.state.value)
            for r in self.jobs.values()
        ]


def replay_events(events: Iterable[Mapping[str, Any]]) -> JournalState:
    """Fold journal lines into a :class:`JournalState` (pure function).

    An illegal line raises :class:`SchedulerError` naming its 1-based
    position in the stream and the job.
    """
    state = JournalState()
    for number, line in enumerate(events, 1):
        try:
            state.apply(line)
        except SchedulerError as exc:
            raise SchedulerError(f"journal line {number}: {exc}") from None
    for record in state.jobs.values():
        if record.state is JobState.RUNNING:  # the writer died mid-attempt
            state.interrupt(record)
    return state


def merge_states(states: Iterable[JournalState]) -> JournalState:
    """Fold several shards' replays into one global :class:`JournalState`.

    Shard journals are disjoint by construction (each worker journals only
    its own jobs, with shard-prefixed job ids), so the merge is a union:
    duplicate job ids are a topology bug and rejected.  Per-user usage sums
    across shards — that is the *global* fair-share ledger.
    """
    merged = JournalState()
    for state in states:
        for job_id, record in state.jobs.items():
            if job_id in merged.jobs:
                raise SchedulerError(
                    f"job {job_id!r} appears in more than one shard journal"
                )
            merged.jobs[job_id] = record
        for signature, nodes in state.rescue.items():
            merged.rescue.setdefault(signature, set()).update(nodes)
        for user, cost in state.usage.items():
            merged.usage[user] = merged.usage.get(user, 0.0) + cost
        merged.max_seq = max(merged.max_seq, state.max_seq)
    return merged


def global_fingerprint(
    paths: Iterable[str | os.PathLike[str]],
) -> list[tuple[int, str, str, str, str]]:
    """Order-insensitive fleet-wide queue identity across shard journals.

    Per-shard fingerprints are order-sensitive (each journal is one
    writer's total order), but shards are concurrent peers — the global
    identity sorts the union by job id so two replays of the same journal
    set always agree, regardless of enumeration order.
    """
    merged = merge_states(JobJournal(path).replay() for path in paths)
    return sorted(merged.fingerprint(), key=lambda item: item[1])
