"""Tests for admission control and the fair-share scheduler."""

from __future__ import annotations

import pytest

from repro.core.errors import QueueFullError, QuotaExceededError, SchedulerError
from repro.scheduler.job import JobRecord, JobSpec, derivation_signature
from repro.scheduler.journal import JobJournal, JournalState
from repro.scheduler.policy import AdmissionPolicy, FairShareScheduler


def record(seq: int, user: str, cluster: str = "A3526", priority: int = 0) -> JobRecord:
    spec = JobSpec.create(user, cluster, priority=priority)
    return JobRecord(
        job_id=f"job-{seq:06d}-test",
        spec=spec,
        signature=derivation_signature(spec),
        seq=seq,
        submitted_at=float(seq),
    )


class TestAdmissionPolicy:
    def test_admits_under_bounds(self):
        AdmissionPolicy(max_queue_depth=2, max_active_per_user=2).admit("alice", 1, 1)

    def test_queue_depth_backpressure(self):
        policy = AdmissionPolicy(max_queue_depth=2)
        with pytest.raises(QueueFullError):
            policy.admit("alice", 2, 0)

    def test_per_user_quota(self):
        policy = AdmissionPolicy(max_active_per_user=3)
        with pytest.raises(QuotaExceededError):
            policy.admit("alice", 0, 3)


class TestFairShareScheduler:
    def test_negative_charge_rejected(self):
        # Charging happens where the journal line is applied.
        state = JournalState()
        job = record(0, "alice")
        state.apply({"ts": 0.0, "event": "submit", "job": job.as_record()})
        state.apply({"ts": 1.0, "event": "start", "job_id": job.job_id})
        with pytest.raises(SchedulerError, match="negative cost"):
            state.apply({"ts": 2.0, "event": "fail", "job_id": job.job_id, "cost": -1.0})
        assert state.usage == {}

    def test_debts_floor_at_least_served(self):
        fs = FairShareScheduler()
        debts = fs.debts(["alice", "bob", "carol"], {"alice": 6.0, "bob": 2.0})
        assert debts["carol"] == 0.0  # least served
        assert debts["bob"] == pytest.approx(2.0)
        assert debts["alice"] == pytest.approx(6.0)
        assert fs.debts([], {"alice": 6.0}) == {}

    def test_restore_usage_survives_restart(self):
        # The ledger is the journal state's: a replayed one ranks the same.
        journal = JobJournal(None)
        for seq, (user, cost) in enumerate([("alice", 5.0), ("bob", 1.0)]):
            job = record(seq, user)
            journal.append("submit", job=job.as_record())
            journal.append("start", job_id=job.job_id)
            journal.append("complete", job_id=job.job_id, cost=cost)
        usage = journal.replay().usage
        assert usage == {"alice": 5.0, "bob": 1.0}
        # Lowest usage dispatches first after the restore.
        picked = FairShareScheduler().pick([record(2, "alice"), record(3, "bob")], usage)
        assert picked is not None and picked.spec.user == "bob"

    def test_pick_lowest_normalized_usage_first(self):
        fs = FairShareScheduler()
        picked = fs.pick([record(0, "alice"), record(1, "bob")], {"alice": 10.0})
        assert picked is not None and picked.spec.user == "bob"

    def test_pick_priority_then_fifo_within_user(self):
        fs = FairShareScheduler()
        jobs = [
            record(0, "alice", priority=0),
            record(1, "alice", priority=5),
            record(2, "alice", priority=5),
        ]
        picked = fs.pick(jobs, {})
        assert picked is not None and picked.seq == 1  # highest prio, earliest seq

    def test_pick_skips_ineligible_users(self):
        # The no-starvation property: a blocked front-runner never wedges
        # the queue for everyone else.
        fs = FairShareScheduler()
        jobs = [record(0, "alice"), record(1, "bob")]
        picked = fs.pick(jobs, {}, eligible=lambda r: r.spec.user != "alice")
        assert picked is not None and picked.spec.user == "bob"

    def test_pick_empty_or_all_ineligible(self):
        fs = FairShareScheduler()
        assert fs.pick([], {}) is None
        assert fs.pick([record(0, "alice")], {}, eligible=lambda r: False) is None

    def test_saturated_interleave(self):
        # A bursty tenant and a light tenant: dispatch alternates rather
        # than draining the burst first.
        fs = FairShareScheduler()
        usage: dict[str, float] = {}
        queued = [record(i, "burst") for i in range(4)] + [record(9, "light")]
        order = []
        while queued:
            picked = fs.pick(queued, usage)
            assert picked is not None
            order.append(picked.spec.user)
            queued.remove(picked)
            usage[picked.spec.user] = usage.get(picked.spec.user, 0.0) + 1.0
        assert order[:2] in (["burst", "light"], ["light", "burst"])
        # light's single job is not last: the burst never starves it out.
        assert order.index("light") < len(order) - 1
