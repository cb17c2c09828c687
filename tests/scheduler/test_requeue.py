"""Tests for the transient-failure requeue path of the workload manager.

A job whose run raised a *transient* :class:`JobFailure` goes back to the
queue — with the requeue policy's exponential backoff as a not-before
gate, the rescue bank carried across attempts, and fair share charged per
attempt — until the policy's attempt budget is exhausted.
"""

from __future__ import annotations

import threading
import time

from repro.resilience.retry import RetryPolicy
from repro.scheduler import (
    JobFailure,
    JobJournal,
    JobOutcome,
    JobState,
    WorkloadManager,
)

FAST_REQUEUE = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0, seed=1)


class ScriptedRunner:
    """Raises the scripted failures in order, then succeeds."""

    def __init__(self, failures: list[JobFailure]) -> None:
        self.failures = list(failures)
        self.calls: list[set[str] | None] = []
        self._lock = threading.Lock()

    def run(self, spec, resume_from):
        with self._lock:
            self.calls.append(set(resume_from) if resume_from else None)
            failure = self.failures.pop(0) if self.failures else None
        if failure is not None:
            raise failure
        return JobOutcome(result_bytes=f"golden:{spec.cluster}".encode())


class TestTransientRequeue:
    def test_transient_failure_requeued_until_success(self):
        runner = ScriptedRunner(
            [JobFailure("grid hiccup", transient=True)] * 2
        )
        with WorkloadManager(runner, requeue_policy=FAST_REQUEUE) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.COMPLETED
        assert done.attempts == 3
        assert done.error == ""  # earlier attempts' errors cleared on success
        assert mgr.result_bytes(record.job_id) == b"golden:A3526"

    def test_rescue_bank_rides_the_requeue(self):
        runner = ScriptedRunner(
            [
                JobFailure("n1 died", rescue_nodes=frozenset({"n0"}), transient=True),
                JobFailure("n2 died", rescue_nodes=frozenset({"n1"}), transient=True),
            ]
        )
        with WorkloadManager(runner, requeue_policy=FAST_REQUEUE) as mgr:
            record = mgr.submit("alice", "A3526")
            assert mgr.wait(record.job_id, timeout=10).state is JobState.COMPLETED
        # Attempt 2 resumed from the first bank, attempt 3 from the merged one.
        assert runner.calls == [None, {"n0"}, {"n0", "n1"}]

    def test_permanent_failure_not_requeued(self):
        runner = ScriptedRunner([JobFailure("bad derivation", transient=False)])
        with WorkloadManager(runner, requeue_policy=FAST_REQUEUE) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.FAILED
        assert done.attempts == 1
        assert "bad derivation" in done.error

    def test_no_policy_means_no_requeue(self):
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)])
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.FAILED and done.attempts == 1

    def test_attempt_budget_exhausts_to_failed(self):
        runner = ScriptedRunner([JobFailure("still down", transient=True)] * 10)
        with WorkloadManager(runner, requeue_policy=FAST_REQUEUE) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.FAILED
        assert done.attempts == FAST_REQUEUE.max_attempts
        assert "still down" in done.error

    def test_backoff_gates_the_resubmission(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.25, max_delay_s=0.25, jitter=0.0, seed=1
        )
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)])
        t0 = time.monotonic()
        with WorkloadManager(runner, requeue_policy=policy) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.COMPLETED
        assert time.monotonic() - t0 >= 0.25  # not-before gate honoured

    def test_fair_share_charged_per_attempt(self):
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)])
        with WorkloadManager(runner, requeue_policy=FAST_REQUEUE) as mgr:
            record = mgr.submit("alice", "A3526")
            mgr.wait(record.job_id, timeout=10)
            usage = mgr.fair_share_usage()["alice"]
        assert usage >= 0.0  # both attempts flowed through the accountant


class TestRequeueJournal:
    def test_requeue_event_journaled_and_replayed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)] * 2)
        with WorkloadManager(
            runner, journal=JobJournal(path), requeue_policy=FAST_REQUEUE
        ) as mgr:
            record = mgr.submit("alice", "A3526")
            mgr.wait(record.job_id, timeout=10)

        events = [line["event"] for line in JobJournal(path).events()]
        assert events.count("requeue") == 2
        assert events[-1] == "complete"

    def test_crash_after_requeue_replays_to_queued(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)] * 50)
        # Budget of 1 attempt: the job fails terminally; rewrite the tape to
        # stop right after the requeue line instead.
        with WorkloadManager(
            runner, journal=journal, requeue_policy=FAST_REQUEUE
        ) as mgr:
            record = mgr.submit("alice", "A3526")
            mgr.wait(record.job_id, timeout=10)

        lines = JobJournal(path).events()
        first_requeue = next(i for i, l in enumerate(lines) if l["event"] == "requeue")
        truncated = lines[: first_requeue + 1]
        state = __import__(
            "repro.scheduler.journal", fromlist=["replay_events"]
        ).replay_events(truncated)
        replayed = state.jobs[record.job_id]
        assert replayed.state is JobState.QUEUED
        assert replayed.started_at is None and replayed.finished_at is None
