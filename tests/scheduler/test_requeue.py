"""Tests for the transient-failure requeue path of the workload manager.

Every manager requeues: a job whose run raised a *transient*
:class:`JobFailure` goes back to the queue — with
:data:`REQUEUE_POLICY`'s exponential backoff as a not-before gate, the
rescue bank carried across attempts, and fair share charged per attempt —
until the policy's attempt budget is exhausted.
"""

from __future__ import annotations

import threading
import time

from repro.faults.profiles import get_profile
from repro.portal.demo import build_demo_environment
from repro.scheduler import (
    JobFailure,
    JobJournal,
    JobOutcome,
    JobState,
    WorkloadManager,
)
from repro.scheduler.service import REQUEUE_POLICY
from repro.sky.registry_data import demonstration_cluster


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
        with WorkloadManager(runner) as mgr:
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
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            assert mgr.wait(record.job_id, timeout=10).state is JobState.COMPLETED
        # Attempt 2 resumed from the first bank, attempt 3 from the merged one.
        assert runner.calls == [None, {"n0"}, {"n0", "n1"}]

    def test_permanent_failure_not_requeued(self):
        runner = ScriptedRunner([JobFailure("bad derivation", transient=False)])
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.FAILED
        assert done.attempts == 1
        assert "bad derivation" in done.error

    def test_attempt_budget_exhausts_to_failed(self):
        runner = ScriptedRunner([JobFailure("still down", transient=True)] * 10)
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.FAILED
        assert done.attempts == REQUEUE_POLICY.max_attempts
        assert "still down" in done.error

    def test_backoff_gates_the_resubmission(self):
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)])
        t0 = time.monotonic()
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.COMPLETED
        # not-before gate honoured
        assert time.monotonic() - t0 >= REQUEUE_POLICY.delay_for(1, label=record.job_id)

    def test_fair_share_charged_per_attempt(self):
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)])
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            mgr.wait(record.job_id, timeout=10)
            usage = mgr.fair_share_usage()["alice"]
        assert usage >= 0.0  # both attempts flowed through the accountant


class TestServedConfigurationRecovers:
    def test_recoverable_profile_requeues_to_the_fault_free_bytes(self):
        """The manager every server runs survives the ``recoverable``
        profile: A3526's first attempt fails on the ``uwisc`` outage, the
        requeue resumes from the rescue bank, and the bytes are the
        fault-free run's."""

        def serve(**faults):
            env = build_demo_environment(
                clusters=[demonstration_cluster("A3526")], **faults
            )
            with WorkloadManager.for_environment(env) as mgr:
                record = mgr.submit("alice", "A3526")
                done = mgr.wait(record.job_id, timeout=60)
                assert done.state is JobState.COMPLETED, done.error
                return done, mgr.result_bytes(record.job_id)

        done, content = serve(fault_plan=get_profile("recoverable"))
        assert done.attempts == 2
        assert content == serve()[1]


class TestRequeueJournal:
    def test_requeue_event_journaled_and_replayed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = ScriptedRunner([JobFailure("hiccup", transient=True)] * 2)
        with WorkloadManager(runner, journal=JobJournal(path)) as mgr:
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
        with WorkloadManager(runner, journal=journal) as mgr:
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
