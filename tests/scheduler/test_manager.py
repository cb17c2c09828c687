"""Tests for the workload manager over a stub runner.

Everything here avoids the real portal: the runner is a fake whose cost
model we control, so queue mechanics (fair share, leases, dedup, rescue,
journal replay, admission) are exercised quickly and deterministically.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

import pytest

from repro.core.errors import (
    QueueFullError,
    QuotaExceededError,
    SchedulerError,
    UnknownJobError,
)
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.scheduler import (
    AdmissionPolicy,
    JobFailure,
    JobJournal,
    JobOutcome,
    JobState,
    RlsResultCache,
    WorkloadManager,
)


class StubRunner:
    """Deterministic job bodies: configurable sleep, scripted failures."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls: list[tuple[str, set[str] | None]] = []
        self.fail_next: list[JobFailure] = []
        self._lock = threading.Lock()

    def run(self, spec, resume_from):
        with self._lock:
            self.calls.append((spec.cluster, set(resume_from) if resume_from else None))
            failure = self.fail_next.pop(0) if self.fail_next else None
        if self.delay:
            time.sleep(self.delay)
        if failure is not None:
            raise failure
        return JobOutcome(result_bytes=f"votable:{spec.cluster}".encode(), galaxies=8)


def fresh_cache() -> RlsResultCache:
    site = StorageSite("cache-site")
    return RlsResultCache(ReplicaLocationService(), site, "cache-site")


class TestSubmitAndRun:
    def test_jobs_complete_with_results(self):
        runner = StubRunner()
        with WorkloadManager(runner, total_slots=8, slots_per_job=2) as mgr:
            a = mgr.submit("alice", "A3526")
            b = mgr.submit("bob", "MS0451")
            assert mgr.wait(a.job_id, timeout=10).state is JobState.COMPLETED
            assert mgr.wait(b.job_id, timeout=10).state is JobState.COMPLETED
            assert mgr.result_bytes(a.job_id) == b"votable:A3526"
            assert mgr.result_bytes(b.job_id) == b"votable:MS0451"
        assert len(runner.calls) == 2

    def test_submit_without_start_spools(self):
        mgr = WorkloadManager(StubRunner())
        mgr.submit("alice", "A3526")
        assert mgr.queue_depth() == 1  # nothing dispatches until start()

    def test_runnerless_manager_cannot_start(self):
        mgr = WorkloadManager(None)
        with pytest.raises(SchedulerError):
            mgr.start()

    def test_unknown_job_id(self):
        mgr = WorkloadManager(StubRunner())
        with pytest.raises(UnknownJobError):
            mgr.job("job-999999-nope")

    def test_cancel_queued_job(self):
        mgr = WorkloadManager(StubRunner())
        record = mgr.submit("alice", "A3526")
        assert mgr.cancel(record.job_id)
        assert mgr.job(record.job_id).state is JobState.CANCELLED
        assert not mgr.cancel(record.job_id)  # already terminal
        assert mgr.queue_depth() == 0

    def test_failed_job_records_error(self):
        runner = StubRunner()
        runner.fail_next.append(JobFailure("grid melted", rescue_nodes=frozenset({"n1"})))
        with WorkloadManager(runner) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
            assert done.state is JobState.FAILED
            assert "grid melted" in done.error
            with pytest.raises(SchedulerError):
                mgr.result_bytes(record.job_id)


def _new_manager_threads(before: set[threading.Thread]) -> list[str]:
    """Names of live manager threads started since ``before`` was taken."""
    return sorted(
        t.name
        for t in set(threading.enumerate()) - before
        if t.name.startswith("scheduler-")
    )


def _until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


class TestJobThreads:
    """Each job slot is a thread that dispatches itself, started on demand."""

    def test_serial_jobs_stay_on_one_thread(self):
        before = set(threading.enumerate())
        with WorkloadManager(StubRunner(), max_workers=4) as mgr:
            for i in range(8):
                record = mgr.submit("alice", f"C{i}")
                assert mgr.wait(record.job_id, timeout=10).state is JobState.COMPLETED
            # one job thread, and no dispatcher thread beside it
            assert _new_manager_threads(before) == ["scheduler-job-0"]
        assert _new_manager_threads(before) == []

    def test_concurrent_jobs_get_up_to_max_workers_threads(self):
        before = set(threading.enumerate())
        runner = StubRunner(delay=0.3)
        with WorkloadManager(runner, total_slots=64, max_workers=3) as mgr:
            for i in range(6):
                mgr.submit(f"user{i}", f"C{i}")
            _until(lambda: mgr.running_jobs() == 3)
            assert len(_new_manager_threads(before)) == 3
            mgr.drain(timeout=10)
        assert len(runner.calls) == 6
        assert _new_manager_threads(before) == []

    def test_stop_lets_running_jobs_finish_and_keeps_the_queue(self):
        mgr = WorkloadManager(StubRunner(delay=0.1), max_workers=1)
        mgr.start()
        first = mgr.submit("alice", "A")
        second = mgr.submit("bob", "B")
        _until(lambda: mgr.running_jobs() == 1)
        mgr.stop()
        assert mgr.job(first.job_id).state is JobState.COMPLETED
        assert mgr.job(second.job_id).state is JobState.QUEUED
        with mgr:  # a restart picks the kept queue up
            assert mgr.wait(second.job_id, timeout=10).state is JobState.COMPLETED

    def test_stress_concurrent_submitters_lose_no_job(self):
        """More job threads than cores, four submitting threads and a tiny
        switch interval: every job runs exactly once and every slot, lease
        and thread is accounted for."""
        before = set(threading.enumerate())
        runner = StubRunner()
        admission = AdmissionPolicy(max_queue_depth=256, max_active_per_user=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkloadManager(
                runner, total_slots=64, max_workers=8, admission=admission
            ) as mgr:
                def submit_batch(user: int) -> None:
                    for i in range(24):
                        mgr.submit(f"user{user}", f"C{user}-{i}")

                submitters = [
                    threading.Thread(target=submit_batch, args=(u,)) for u in range(4)
                ]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                mgr.drain(timeout=30)
                assert len(_new_manager_threads(before)) <= 8
        finally:
            sys.setswitchinterval(interval)
        assert sorted(c for c, _ in runner.calls) == sorted(
            f"C{u}-{i}" for u in range(4) for i in range(24)
        )
        assert all(r.state is JobState.COMPLETED for r in mgr.jobs())
        assert mgr.running_jobs() == 0 and mgr.leases.in_use() == 0
        assert _new_manager_threads(before) == []


class TestAdmission:
    def test_queue_backpressure(self):
        mgr = WorkloadManager(
            StubRunner(), admission=AdmissionPolicy(max_queue_depth=2)
        )
        mgr.submit("alice", "A")
        mgr.submit("bob", "B")
        with pytest.raises(QueueFullError):
            mgr.submit("carol", "C")

    def test_per_user_quota(self):
        mgr = WorkloadManager(
            StubRunner(), admission=AdmissionPolicy(max_active_per_user=2)
        )
        mgr.submit("alice", "A")
        mgr.submit("alice", "B")
        with pytest.raises(QuotaExceededError):
            mgr.submit("alice", "C")
        mgr.submit("bob", "D")  # other tenants unaffected

    def test_rejected_submission_not_journaled(self):
        journal = JobJournal(None)
        mgr = WorkloadManager(
            StubRunner(),
            admission=AdmissionPolicy(max_queue_depth=1),
            journal=journal,
        )
        mgr.submit("alice", "A")
        with pytest.raises(QueueFullError):
            mgr.submit("bob", "B")
        assert len(journal.events()) == 1


class TestResultCache:
    def test_identical_resubmission_is_cache_hit(self):
        runner = StubRunner()
        with WorkloadManager(runner, cache=fresh_cache()) as mgr:
            first = mgr.submit("alice", "A3526", {"bins": 5})
            mgr.wait(first.job_id, timeout=10)
            second = mgr.submit("bob", "A3526", {"bins": 5})  # other tenant!
            done = mgr.wait(second.job_id, timeout=10)
        assert done.cache_hit
        assert len(runner.calls) == 1  # zero compute for the resubmission
        assert mgr.result_bytes(second.job_id) == mgr.result_bytes(first.job_id)
        assert done.result_lfn == first.result_lfn

    def test_different_options_miss(self):
        runner = StubRunner()
        with WorkloadManager(runner, cache=fresh_cache()) as mgr:
            a = mgr.submit("alice", "A3526", {"bins": 5})
            mgr.wait(a.job_id, timeout=10)
            b = mgr.submit("alice", "A3526", {"bins": 6})
            assert not mgr.wait(b.job_id, timeout=10).cache_hit
        assert len(runner.calls) == 2

    def test_inflight_duplicate_held_back_and_answered_from_cache(self):
        runner = StubRunner(delay=0.1)
        with WorkloadManager(runner, cache=fresh_cache(), max_workers=4) as mgr:
            a = mgr.submit("alice", "A3526")
            b = mgr.submit("bob", "A3526")  # identical derivation, in flight
            mgr.wait(a.job_id, timeout=10)
            done = mgr.wait(b.job_id, timeout=10)
        assert len(runner.calls) == 1
        assert done.cache_hit

    def test_cache_survives_manager_restart(self):
        cache = fresh_cache()
        runner = StubRunner()
        with WorkloadManager(runner, cache=cache) as mgr:
            record = mgr.submit("alice", "A3526")
            mgr.wait(record.job_id, timeout=10)
        # A fresh manager over the same RLS answers without compute.
        with WorkloadManager(StubRunner(), cache=cache) as mgr2:
            again = mgr2.submit("bob", "A3526")
            assert mgr2.wait(again.job_id, timeout=10).cache_hit


class TestRescueState:
    def test_failure_banks_rescue_nodes_for_resubmission(self):
        runner = StubRunner()
        runner.fail_next.append(
            JobFailure("node died", rescue_nodes=frozenset({"job-dv-a", "job-dv-b"}))
        )
        with WorkloadManager(runner) as mgr:
            first = mgr.submit("alice", "A3526")
            assert mgr.wait(first.job_id, timeout=10).state is JobState.FAILED
            assert mgr.rescue_state(first.signature) == {"job-dv-a", "job-dv-b"}
            second = mgr.submit("alice", "A3526")
            done = mgr.wait(second.job_id, timeout=10)
        assert done.state is JobState.COMPLETED
        # The resubmission received the rescue nodes as its resume set.
        assert runner.calls[1][1] == {"job-dv-a", "job-dv-b"}
        # Success clears the banked state.
        assert mgr.rescue_state(first.signature) == set()

    def test_repeated_failures_accumulate_nodes(self):
        runner = StubRunner()
        runner.fail_next.append(JobFailure("x", rescue_nodes=frozenset({"a"})))
        runner.fail_next.append(JobFailure("y", rescue_nodes=frozenset({"a", "b"})))
        with WorkloadManager(runner) as mgr:
            first = mgr.submit("alice", "A3526")
            mgr.wait(first.job_id, timeout=10)
            second = mgr.submit("alice", "A3526")
            mgr.wait(second.job_id, timeout=10)
            assert mgr.rescue_state(first.signature) == {"a", "b"}


class TestJournalRecovery:
    def test_replay_restores_queue_exactly(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        mgr = WorkloadManager(StubRunner(), journal=JobJournal(path))
        for user, cluster in [("alice", "A"), ("bob", "B"), ("alice", "C")]:
            mgr.submit(user, cluster)
        before = mgr.journal.replay().fingerprint()
        mgr.close()  # the "crash" ends the writer, as a dead process's lock ends

        # A brand-new manager over the same journal file.
        mgr2 = WorkloadManager(StubRunner(), journal=JobJournal(path))
        assert mgr2.journal.replay().fingerprint() == before
        assert mgr2.queue_depth() == 3
        with mgr2:
            mgr2.drain(timeout=10)
        assert all(r.state is JobState.COMPLETED for r in mgr2.jobs())

    def test_no_lost_or_duplicated_jobs_after_mid_queue_crash(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = StubRunner()
        with WorkloadManager(runner, journal=JobJournal(path)) as mgr:
            first = mgr.submit("alice", "A")
            mgr.wait(first.job_id, timeout=10)
            mgr.submit("bob", "B")  # queued at "crash" time
            mgr.submit("carol", "C")
            # Simulated kill: stop dispatching before B/C run.
            # (stop() lets running jobs finish; B/C may or may not have
            # started — drain whatever did.)
        mgr.close()
        mgr2 = WorkloadManager(StubRunner(), journal=JobJournal(path))
        states = {r.job_id: r.state for r in mgr2.jobs()}
        assert len(states) == 3  # nothing lost, nothing duplicated
        assert states[first.job_id] is JobState.COMPLETED  # finished work kept

    def test_usage_survives_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = StubRunner(delay=0.02)
        with WorkloadManager(runner, journal=JobJournal(path)) as mgr:
            record = mgr.submit("alice", "A")
            mgr.wait(record.job_id, timeout=10)
        mgr.close()
        mgr2 = WorkloadManager(StubRunner(), journal=JobJournal(path))
        assert mgr2.fair_share_usage()["alice"] > 0.0

    def test_rescue_survives_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = StubRunner()
        runner.fail_next.append(JobFailure("boom", rescue_nodes=frozenset({"n1"})))
        with WorkloadManager(runner, journal=JobJournal(path)) as mgr:
            record = mgr.submit("alice", "A")
            mgr.wait(record.job_id, timeout=10)
        mgr.close()
        mgr2 = WorkloadManager(StubRunner(), journal=JobJournal(path))
        assert mgr2.rescue_state(record.signature) == {"n1"}


class TestFairShareUnderSaturation:
    def test_bursty_tenant_does_not_starve_others(self):
        """One tenant floods the queue; everyone's median wait stays within
        2x the global median (the ISSUE acceptance bound)."""
        runner = StubRunner(delay=0.03)
        with WorkloadManager(
            runner,
            total_slots=4,
            slots_per_job=4,  # one job at a time: fully saturated
            max_workers=1,
            admission=AdmissionPolicy(max_queue_depth=64, max_active_per_user=32),
        ) as mgr:
            records = []
            # the burst lands first...
            for i in range(12):
                records.append(mgr.submit("burst", f"B{i}"))
            # ...then three light tenants, one job each
            for user in ("light1", "light2", "light3"):
                records.append(mgr.submit(user, f"C-{user}"))
            mgr.drain(timeout=60)

        waits: dict[str, list[float]] = {}
        for record in mgr.jobs():
            assert record.state is JobState.COMPLETED
            assert record.wait_seconds is not None
            waits.setdefault(record.spec.user, []).append(record.wait_seconds)
        global_median = statistics.median(
            w for per_user in waits.values() for w in per_user
        )
        for user, user_waits in waits.items():
            assert statistics.median(user_waits) <= 2.0 * global_median + 0.05, (
                f"{user} starved: median {statistics.median(user_waits):.3f}s "
                f"vs global {global_median:.3f}s"
            )

    def test_usage_charged_by_slot_seconds(self):
        runner = StubRunner(delay=0.02)
        with WorkloadManager(runner, total_slots=8, slots_per_job=4) as mgr:
            record = mgr.submit("alice", "A")
            mgr.wait(record.job_id, timeout=10)
            run = mgr.job(record.job_id).run_seconds
            assert run is not None
            assert mgr.fair_share_usage()["alice"] == pytest.approx(run * 4, rel=0.01)

    def test_per_tenant_slot_cap_defaults_to_half_pool(self):
        mgr = WorkloadManager(StubRunner(), total_slots=48, slots_per_job=4)
        assert mgr.leases.per_user_cap == 24
