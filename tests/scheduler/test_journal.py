"""Tests for the JSONL journal and its crash-replay fold."""

from __future__ import annotations

import pytest

from repro.core.errors import SchedulerError
from repro.scheduler.job import JobRecord, JobSpec, JobState, derivation_signature
from repro.scheduler.journal import JobJournal, replay_events
from repro.scheduler.service import WorkloadManager


def submit_line(journal: JobJournal, seq: int, user: str, cluster: str) -> JobRecord:
    spec = JobSpec.create(user, cluster)
    record = JobRecord(
        job_id=f"job-{seq:06d}-test",
        spec=spec,
        signature=derivation_signature(spec),
        seq=seq,
        submitted_at=float(seq),
    )
    journal.append("submit", job=record.as_record())
    return record


class TestJobJournal:
    def test_memory_journal_round_trips(self):
        journal = JobJournal(None)
        journal.append("rescue", signature="sig-x", nodes=["a"])
        assert [line["event"] for line in journal.events()] == ["rescue"]

    def test_file_journal_persists(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        submit_line(journal, 0, "alice", "A3526")
        # A second handle over the same file sees the same events.
        again = JobJournal(path)
        assert len(again.events()) == 1
        assert again.replay().fingerprint() == journal.replay().fingerprint()

    def test_missing_file_is_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "nope.jsonl")
        assert journal.events() == []
        assert journal.replay().jobs == {}

    def test_unknown_event_rejected_at_append(self):
        with pytest.raises(SchedulerError):
            JobJournal(None).append("explode")


class TestReplay:
    def test_lines_without_accounting_replay_to_none(self):
        """Terminal lines journaled before jobs carried accounting (no
        ``accounting`` key) still replay, to the same queue."""
        spec = JobSpec.create("alice", "A3526")
        sig = derivation_signature(spec)
        job = {
            "job_id": "job-000000-abcdef", "user": "alice", "cluster": "A3526",
            "options": [], "priority": 0, "signature": sig, "seq": 0,
            "submitted_at": 1.0, "state": "queued", "attempts": 0,
        }
        lines = [
            {"ts": 1.0, "event": "submit", "job": job},
            {"ts": 2.0, "event": "submit", "job": {**job, "job_id": "job-000001-abcdef", "seq": 1}},
            {"ts": 3.0, "event": "start", "job_id": "job-000000-abcdef", "started_at": 3.0},
            {"ts": 4.0, "event": "complete", "job_id": "job-000000-abcdef", "cost": 4.0,
             "finished_at": 4.0, "cache_hit": False, "result_lfn": "r.vot", "resumed_nodes": 0},
            {"ts": 5.0, "event": "start", "job_id": "job-000001-abcdef", "started_at": 5.0},
            {"ts": 6.0, "event": "fail", "job_id": "job-000001-abcdef", "cost": 4.0,
             "finished_at": 6.0, "error": "boom", "resumed_nodes": 0},
        ]
        state = replay_events(lines)
        assert state.fingerprint() == [
            (0, "job-000000-abcdef", "alice", "A3526", "completed"),
            (1, "job-000001-abcdef", "alice", "A3526", "failed"),
        ]
        assert [r.accounting for r in state.jobs.values()] == [None, None]
        assert [r.view()["accounting"] for r in state.jobs.values()] == [None, None]

    def test_complete_line_with_cache_store_error_replays(self):
        """Older managers journaled ``complete`` with a ``cache_store_error``
        when the result store failed; such a line still replays, and the
        error stays on the record's ``extra``."""
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A3526")
        journal.append("start", job_id=a.job_id, started_at=1.0)
        journal.append(
            "complete", job_id=a.job_id, cost=4.0, finished_at=2.0, cache_hit=False,
            result_lfn="", resumed_nodes=0, cache_store_error="disk full",
        )
        record = journal.replay().jobs[a.job_id]
        assert record.state is JobState.COMPLETED
        assert record.extra["cache_store_error"] == "disk full"

    def test_submission_order_preserved(self):
        journal = JobJournal(None)
        for seq, (user, cluster) in enumerate(
            [("alice", "A"), ("bob", "B"), ("alice", "C")]
        ):
            submit_line(journal, seq, user, cluster)
        state = journal.replay()
        assert [r.seq for r in state.jobs.values()] == [0, 1, 2]
        assert state.max_seq == 2
        assert len(state.queued_jobs()) == 3

    def test_terminal_jobs_not_requeued(self):
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A")
        b = submit_line(journal, 1, "bob", "B")
        c = submit_line(journal, 2, "carol", "C")
        journal.append("start", job_id=a.job_id)
        journal.append("complete", job_id=a.job_id, cache_hit=False, cost=3.0)
        journal.append("start", job_id=b.job_id)
        journal.append("fail", job_id=b.job_id, error="boom")
        journal.append("cancel", job_id=c.job_id)
        state = journal.replay()
        assert state.jobs[a.job_id].state is JobState.COMPLETED
        assert state.jobs[b.job_id].state is JobState.FAILED
        assert state.jobs[b.job_id].error == "boom"
        assert state.jobs[c.job_id].state is JobState.CANCELLED
        assert state.queued_jobs() == []

    def test_running_at_crash_requeued(self):
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A")
        journal.append("start", job_id=a.job_id)
        # ... crash: no terminal event ever lands.
        state = journal.replay()
        record = state.jobs[a.job_id]
        assert record.state is JobState.QUEUED
        assert record.started_at is None
        assert record.attempts == 1  # the interrupted attempt stays counted

    def test_usage_accrues_to_users(self):
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A")
        b = submit_line(journal, 1, "alice", "B")
        journal.append("start", job_id=a.job_id)
        journal.append("complete", job_id=a.job_id, cost=2.5)
        journal.append("start", job_id=b.job_id)
        journal.append("complete", job_id=b.job_id, cost=1.5)
        assert journal.replay().usage == {"alice": 4.0}

    def test_rescue_set_and_cleared(self):
        journal = JobJournal(None)
        journal.append("rescue", signature="sig-x", nodes=["n1", "n2"])
        assert journal.replay().rescue == {"sig-x": {"n1", "n2"}}
        journal.append("rescue", signature="sig-x", nodes=[])
        assert journal.replay().rescue == {}

    def test_duplicate_submit_rejected(self):
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A")
        journal.append("submit", job=a.as_record())
        with pytest.raises(SchedulerError):
            journal.replay()

    def test_event_for_unknown_job_rejected(self):
        with pytest.raises(SchedulerError):
            replay_events([{"ts": 0.0, "event": "start", "job_id": "ghost"}])

    def test_unknown_event_rejected(self):
        with pytest.raises(SchedulerError):
            replay_events([{"ts": 0.0, "event": "mystery"}])

    def test_fingerprint_is_replay_stable(self):
        journal = JobJournal(None)
        for seq in range(5):
            submit_line(journal, seq, f"user{seq % 2}", f"C{seq}")
        assert journal.replay().fingerprint() == journal.replay().fingerprint()


class TestTransitionLegality:
    """``apply`` enforces the transition table; replay names line and job."""

    @staticmethod
    def stream(*tail: tuple[str, dict]) -> tuple[list[dict], str]:
        journal = JobJournal(None)
        a = submit_line(journal, 0, "alice", "A")
        for event, payload in tail:
            journal.append(event, job_id=a.job_id, **payload)
        return journal.events(), a.job_id

    @pytest.mark.parametrize(
        "tail",
        [
            [("start", {}), ("complete", {"cost": 1.0}), ("complete", {"cost": 1.0})],
            [("complete", {"cost": 1.0})],  # never started
            [("start", {}), ("complete", {}), ("start", {})],  # resurrects a finished job
            [("start", {}), ("fail", {}), ("cancel", {})],
            [("cancel", {}), ("start", {})],
            [("requeue", {})],
        ],
    )
    def test_illegal_transition_names_line_and_job(self, tail):
        events, job_id = self.stream(*tail)
        with pytest.raises(SchedulerError) as caught:
            replay_events(events)
        message = str(caught.value)
        assert f"journal line {len(events)}:" in message
        assert job_id in message

    @pytest.mark.parametrize(
        "event, final", [("start", JobState.QUEUED), ("cancel", JobState.CANCELLED)]
    )
    def test_running_in_a_stream_may_mean_interrupted(self, event, final):
        # The writer died after `start`; the restarted one held the job
        # QUEUED (that rule writes no line) and started / cancelled it.
        events, job_id = self.stream(("start", {}), (event, {}))
        record = replay_events(events).jobs[job_id]
        assert record.state is final
        assert record.attempts == (2 if event == "start" else 1)

    @pytest.mark.parametrize("event", ["speculate", "deadline-shed"])
    def test_retired_event_is_rejected_naming_its_line(self, event):
        # No writer emits these any more; an older journal that holds one
        # is refused through the unknown-event path, not read as a no-op.
        events, job_id = self.stream(("start", {}))
        events.append({"ts": 0.0, "event": event, "job_id": job_id})
        with pytest.raises(SchedulerError, match=rf"journal line 3: .*unknown event {event!r}"):
            replay_events(events)

    def test_event_for_unknown_job_names_line_and_job(self):
        events, _ = self.stream()
        events.append({"ts": 0.0, "event": "complete", "job_id": "job-999999-ghost"})
        with pytest.raises(SchedulerError, match=r"journal line 2: .*job-999999-ghost"):
            replay_events(events)

    def test_rejected_line_leaves_the_state_untouched(self):
        events, job_id = self.stream(("start", {}), ("complete", {"cost": 2.0}))
        state = replay_events(events)
        before = (state.fingerprint(), dict(state.usage), state.jobs[job_id].attempts)
        for event in ("complete", "start", "cancel"):
            with pytest.raises(SchedulerError):
                state.apply({"ts": 9.0, "event": event, "job_id": job_id, "cost": 2.0})
        assert (state.fingerprint(), state.usage, state.jobs[job_id].attempts) == before

    def test_torn_final_line_is_still_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        a = submit_line(journal, 0, "alice", "A")
        journal.append("start", job_id=a.job_id)
        journal.append("complete", job_id=a.job_id, cost=1.0)
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # the complete line never fully landed
        state = JobJournal(path).replay()
        assert state.jobs[a.job_id].state is JobState.QUEUED  # interrupted RUNNING
        assert state.usage == {}


class TestTornTailRepair:
    """A writer killed mid-append leaves a fragment; the next writer must
    cut it off before appending, or its first line fuses onto it."""

    def test_restart_after_a_cut_at_every_byte_of_the_last_record(self, tmp_path):
        seed = tmp_path / "seed.jsonl"
        manager = WorkloadManager(None, journal=JobJournal(seed))
        manager.submit("alice", "A")
        manager.submit("bob", "B")
        manager.close()
        data = seed.read_bytes()
        first_record_end = data.index(b"\n") + 1
        path = tmp_path / "journal.jsonl"
        for cut in range(first_record_end, len(data) + 1):
            path.write_bytes(data[:cut])
            survivors = len(JobJournal(path).replay().jobs)
            # the last record survives only whole (its newline may be lost)
            assert survivors == (2 if cut >= len(data) - 1 else 1)
            restarted = WorkloadManager(None, journal=JobJournal(path))
            assert restarted.queue_depth() == survivors
            for n, cluster in enumerate(("C", "D"), 1):
                restarted.submit("carol", cluster)
                replayed = JobJournal(path).replay()
                assert replayed.fingerprint() == [
                    (r.seq, r.job_id, r.spec.user, r.spec.cluster, r.state.value)
                    for r in restarted.jobs()
                ]
                assert len(replayed.jobs) == survivors + n
            # no fragment remains: every line is a whole record
            lines = path.read_bytes().split(b"\n")
            assert lines[-1] == b"" and len(lines) == survivors + 3
            assert [r.seq for r in restarted.jobs()] == list(range(survivors + 2))
            restarted.close()  # the next cut is the next writer's life

    def test_reading_never_modifies_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        submit_line(journal, 0, "alice", "A")
        torn = path.read_bytes() + b'{"event": "sta'
        path.write_bytes(torn)
        assert len(JobJournal(path).replay().jobs) == 1
        assert path.read_bytes() == torn


class TestOneWriter:
    """A file journal has one writer, under an exclusive lock; readers never lock."""

    def test_a_second_writer_is_refused_and_the_file_still_replays(self, tmp_path):
        # Two writers on one file used to mint the same job id from their own
        # replayed max_seq, and the next replay refused the file for good.
        path = tmp_path / "journal.jsonl"
        live = WorkloadManager(None, journal=JobJournal(path))
        first = live.submit("alice", "A3526")
        with pytest.raises(SchedulerError, match="another writer holds this journal") as exc:
            WorkloadManager(None, journal=JobJournal(path))
        assert str(path) in str(exc.value)
        second = live.submit("bob", "A3526")
        assert second.job_id != first.job_id
        assert list(JobJournal(path).replay().jobs) == [first.job_id, second.job_id]
        live.close()

    def test_readers_never_lock(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        live = WorkloadManager(None, journal=JobJournal(path))
        live.submit("alice", "A3526")
        assert len(JobJournal(path).events()) == 1
        assert JobJournal(path).replay().fingerprint() == live.journal.replay().fingerprint()
        live.submit("bob", "MS0451")  # reading took nothing from the writer
        assert len(JobJournal(path).replay().jobs) == 2
        live.close()

    def test_a_bare_append_takes_the_lock_until_close(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JobJournal(path)
        writer.append("rescue", signature="sig-x", nodes=["a"])
        with pytest.raises(SchedulerError, match="another writer"):
            JobJournal(path).append("rescue", signature="sig-y", nodes=["b"])
        writer.close()
        with pytest.raises(SchedulerError, match="closed"):  # never re-locks
            writer.append("rescue", signature="sig-y", nodes=["b"])
        JobJournal(path).append("rescue", signature="sig-y", nodes=["b"])
        assert [line["signature"] for line in writer.events()] == ["sig-x", "sig-y"]

    def test_close_hands_the_file_to_the_next_manager(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = WorkloadManager(None, journal=JobJournal(path))
        job_id = first.submit("alice", "A3526").job_id
        first.close()
        with pytest.raises(SchedulerError, match="closed"):
            first.submit("bob", "MS0451")
        restarted = WorkloadManager(None, journal=JobJournal(path))
        assert [r.job_id for r in restarted.jobs()] == [job_id]
        restarted.close()

    def test_a_journal_that_cannot_replay_releases_its_lock(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event": "start", "job_id": "job-000000-x", "ts": 0.0}\n')
        with pytest.raises(SchedulerError, match="unknown job"):
            WorkloadManager(None, journal=JobJournal(path))
        journal = JobJournal(path)
        journal.append("rescue", signature="sig-x", nodes=["a"])  # not left locked
        journal.close()
