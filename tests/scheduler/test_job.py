"""Tests for the job model and the derivation signature."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.scheduler.job import (
    JobAccounting,
    JobRecord,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    derivation_signature,
)
from repro.scheduler.journal import JobJournal, replay_events
from repro.shard.worker import record_from_payload


class TestJobSpec:
    def test_create_normalises_options(self):
        a = JobSpec.create("alice", "A3526", {"b": 2, "a": 1})
        b = JobSpec.create("alice", "A3526", {"a": 1, "b": 2})
        assert a == b
        assert a.options == (("a", 1), ("b", 2))
        assert a.options_dict() == {"a": 1, "b": 2}

    def test_requires_user_and_cluster(self):
        with pytest.raises(ValueError):
            JobSpec.create("", "A3526")
        with pytest.raises(ValueError):
            JobSpec.create("alice", "")


class TestDerivationSignature:
    def test_deterministic(self):
        spec = JobSpec.create("alice", "A3526", {"bins": 5})
        assert derivation_signature(spec) == derivation_signature(spec)

    def test_user_and_priority_do_not_participate(self):
        # Cross-tenant reuse is the point: only the derived product matters.
        a = JobSpec.create("alice", "A3526", {"bins": 5}, priority=9)
        b = JobSpec.create("bob", "A3526", {"bins": 5}, priority=0)
        assert derivation_signature(a) == derivation_signature(b)

    def test_cluster_options_and_version_do(self):
        base = JobSpec.create("alice", "A3526", {"bins": 5})
        assert derivation_signature(base) != derivation_signature(
            JobSpec.create("alice", "MS0451", {"bins": 5})
        )
        assert derivation_signature(base) != derivation_signature(
            JobSpec.create("alice", "A3526", {"bins": 6})
        )
        assert derivation_signature(base) != derivation_signature(
            base, code_version="v-next"
        )

    def test_shape(self):
        sig = derivation_signature(JobSpec.create("u", "c"))
        assert sig.startswith("sig-") and len(sig) == 20


class TestJobRecord:
    def record(self) -> JobRecord:
        spec = JobSpec.create("alice", "A3526", {"bins": 5}, priority=2)
        return JobRecord(
            job_id="job-000001-abcdef",
            spec=spec,
            signature=derivation_signature(spec),
            seq=1,
            submitted_at=10.0,
        )

    def test_round_trips_through_record_dict(self):
        record = self.record()
        clone = JobRecord.from_record(record.as_record())
        assert clone.spec == record.spec
        assert clone.signature == record.signature
        assert clone.seq == record.seq
        assert clone.state is JobState.QUEUED

    def test_timing_properties(self):
        record = self.record()
        assert record.wait_seconds is None and record.run_seconds is None
        record.started_at = 12.0
        record.finished_at = 15.5
        assert record.wait_seconds == pytest.approx(2.0)
        assert record.run_seconds == pytest.approx(3.5)

    def test_wait_never_negative_across_clock_domains(self):
        # Replayed journals carry another process's monotonic timestamps.
        record = self.record()
        record.submitted_at = 1e9
        record.started_at = 5.0
        assert record.wait_seconds == 0.0

    def test_terminal_states(self):
        record = self.record()
        assert not record.terminal
        for state in TERMINAL_STATES:
            record.state = state
            assert record.terminal
        record.state = JobState.RUNNING
        assert not record.terminal

    def test_fleet_payload_inverts_a_view_with_accounting(self):
        """``record_from_payload`` rebuilds the accounting a shard worker's
        reply carries, through the JSON wire."""
        accounting = JobAccounting(
            galaxies=12, valid_measurements=11, compute_jobs=13, transfers=25,
            stage_in=12, inter_site=12, stage_out=1, images=16, image_bytes=250_000,
            jobs_per_site={"isi": 4, "uwisc": 4, "fnal": 4, "nvo-storage": 1},
            failed_nodes=0, unrunnable_nodes=0,
        )
        journal = JobJournal(None)
        journal.append("submit", job=self.record().as_record())
        journal.append("start", job_id="job-000001-abcdef", started_at=11.0)
        journal.append(
            "complete", job_id="job-000001-abcdef", cost=8.0, finished_at=14.0,
            accounting=dataclasses.asdict(accounting),
        )
        record = replay_events(journal.events()).jobs["job-000001-abcdef"]
        assert record.accounting == accounting
        view = record.view()
        clone = record_from_payload(json.loads(json.dumps(view)))
        assert clone.accounting == accounting
        assert clone.view() == view
