"""The one job state machine: live state == replayed state.

``JournalState.apply`` is the only transition function; the manager
advances by applying the line it just wrote and crash replay folds the
same function over the file.  These tests pin the consequence — after any
campaign, and at every prefix of any legal event stream, what the live
manager holds is exactly what its journal replays to.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    JobFailure,
    JobJournal,
    JobOutcome,
    JobRecord,
    JobSpec,
    JobState,
    JournalState,
    WorkloadManager,
    derivation_signature,
    replay_events,
)

#: Fields that are process-local by design (never journaled).
PROCESS_LOCAL = {"submitted_at", "not_before", "trace_ctx"}


def durable(record: JobRecord) -> dict:
    """Every field ``apply`` owns (plus identity), process-local ones dropped."""
    return {
        f.name: getattr(record, f.name)
        for f in dataclasses.fields(record)
        if f.name not in PROCESS_LOCAL
    }


def assert_live_equals_replay(manager: WorkloadManager) -> JournalState:
    replayed = manager.journal.replay()
    assert [durable(r) for r in manager.jobs()] == [
        durable(r) for r in replayed.jobs.values()
    ]
    assert manager.fair_share_usage() == replayed.usage
    for record in replayed.jobs.values():
        assert manager.rescue_state(record.signature) == replayed.rescue.get(
            record.signature, set()
        )
    return replayed


class SlowScriptedRunner:
    """Each attempt takes ``delay`` seconds, then raises the next scripted
    failure (or succeeds once the script is exhausted)."""

    def __init__(self, failures: list[BaseException], delay: float = 0.02) -> None:
        self.failures = list(failures)
        self.delay = delay
        self._lock = threading.Lock()

    def run(self, spec, resume_from):
        time.sleep(self.delay)
        with self._lock:
            failure = self.failures.pop(0) if self.failures else None
        if failure is not None:
            raise failure
        return JobOutcome(result_bytes=b"golden", resumed_nodes=2)


class TestUsageSurvivesReplay:
    """Fair share is charged per attempt — and every attempt's cost is on
    the line that ended it, so the ledger replays exactly."""

    def test_fails_twice_then_completes(self, tmp_path):
        runner = SlowScriptedRunner(
            [
                JobFailure("hiccup", rescue_nodes=frozenset({"n0"}), transient=True, resumed_nodes=1),
                JobFailure("hiccup again", transient=True),
            ]
        )
        journal = JobJournal(tmp_path / "journal.jsonl")
        with WorkloadManager(runner, journal=journal) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)
        assert done.state is JobState.COMPLETED and done.attempts == 3
        replayed = assert_live_equals_replay(mgr)
        # three attempts of >= 0.02 s on 4 slots each
        assert replayed.usage["alice"] >= 3 * 0.02 * 4
        costs = [line["cost"] for line in journal.events() if "cost" in line]
        assert len(costs) == 3 and sum(costs) == replayed.usage["alice"]
        # a restarted manager starts from the same ledger
        mgr.close()
        restarted = WorkloadManager(None, journal=JobJournal(journal.path))
        assert restarted.fair_share_usage() == mgr.fair_share_usage()

    def test_permanent_failure_is_charged(self, tmp_path):
        runner = SlowScriptedRunner([JobFailure("bad derivation", transient=False)])
        journal = JobJournal(tmp_path / "journal.jsonl")
        with WorkloadManager(runner, journal=journal) as mgr:
            record = mgr.submit("alice", "A3526")
            assert mgr.wait(record.job_id, timeout=10).state is JobState.FAILED
        replayed = assert_live_equals_replay(mgr)
        assert replayed.usage["alice"] >= 0.02 * 4

    def test_unexpected_exception_is_charged(self, tmp_path):
        runner = SlowScriptedRunner([RuntimeError("boom")])
        journal = JobJournal(tmp_path / "journal.jsonl")
        with WorkloadManager(runner, journal=journal) as mgr:
            record = mgr.submit("alice", "A3526")
            assert mgr.wait(record.job_id, timeout=10).error == "boom"
        assert assert_live_equals_replay(mgr).usage["alice"] > 0.0


class TestWriteAhead:
    def test_a_line_that_cannot_be_written_changes_nothing(self):
        class FullDisk(JobJournal):
            def append(self, event, **payload):
                raise OSError("no space left on device")

        mgr = WorkloadManager(None, journal=FullDisk(None))
        with pytest.raises(OSError):
            mgr.submit("alice", "A3526")
        assert mgr.jobs() == [] and mgr.queue_depth() == 0

    def test_lines_carry_the_manager_clock(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        with WorkloadManager(SlowScriptedRunner([]), journal=journal) as mgr:
            done = mgr.wait(mgr.submit("alice", "A3526").job_id, timeout=10)
        by_event = {line["event"]: line for line in journal.events()}
        assert by_event["start"]["started_at"] == done.started_at
        assert by_event["complete"]["finished_at"] == done.finished_at
        assert by_event["complete"]["resumed_nodes"] == done.resumed_nodes == 2
        replayed = journal.replay().jobs[done.job_id]
        assert replayed.run_seconds == done.run_seconds
        assert replayed.wait_seconds == done.wait_seconds


class TestRestartAfterInterruptedAttempt:
    """The stream a *recovered* manager writes must itself replay: it holds
    the interrupted job QUEUED, the file still says RUNNING."""

    @staticmethod
    def interrupted_journal(tmp_path) -> tuple[JobJournal, str]:
        journal = JobJournal(tmp_path / "journal.jsonl")
        first = WorkloadManager(None, journal=journal)
        job_id = first.submit("alice", "A3526").job_id
        journal.append("start", job_id=job_id, started_at=1.0)  # ... and the process dies
        first.close()  # ... and its lock with it
        return journal, job_id

    def test_rerun_after_restart_replays_and_restarts_again(self, tmp_path):
        journal, job_id = self.interrupted_journal(tmp_path)
        second = WorkloadManager(SlowScriptedRunner([]), journal=JobJournal(journal.path))
        assert second.job(job_id).state is JobState.QUEUED
        with second:
            done = second.wait(job_id, timeout=10)
        assert done.state is JobState.COMPLETED and done.attempts == 2
        events = [line["event"] for line in journal.events()]
        assert events == ["submit", "start", "start", "complete"]
        assert_live_equals_replay(second)
        second.close()
        third = WorkloadManager(None, journal=JobJournal(journal.path))
        assert [durable(r) for r in third.jobs()] == [durable(r) for r in second.jobs()]
        assert third.fair_share_usage() == second.fair_share_usage()

    def test_cancel_after_restart_replays(self, tmp_path):
        journal, job_id = self.interrupted_journal(tmp_path)
        second = WorkloadManager(None, journal=JobJournal(journal.path))
        assert second.cancel(job_id) is True
        assert_live_equals_replay(second)
        second.close()
        assert WorkloadManager(None, journal=JobJournal(journal.path)).queue_depth() == 0


class TestJournalErrorAtFinish:
    """Write-ahead means a failed append leaves the job RUNNING; it must not
    strand there — it is an interrupted attempt and runs again."""

    @pytest.mark.parametrize("broken", ["complete", "fail", "requeue", "rescue"])
    def test_attempt_whose_end_cannot_be_journaled_is_rerun(self, tmp_path, broken):
        class FlakyDisk(JobJournal):
            failures = 1

            def append(self, event, **payload):
                if event == broken and self.failures:
                    self.failures -= 1
                    raise OSError("no space left on device")
                return super().append(event, **payload)

        transient = broken in ("requeue", "rescue")
        failures = {
            "complete": [],
            "fail": [JobFailure("bad derivation", transient=False)] * 2,
        }.get(broken, [JobFailure("hiccup", rescue_nodes=frozenset({"n0"}), transient=True)] * 2)
        journal = FlakyDisk(tmp_path / "journal.jsonl")
        # One job thread: the rerun must happen on the thread that saw the
        # OSError escape, so the slot has to survive it.
        with WorkloadManager(
            SlowScriptedRunner(failures), journal=journal, max_workers=1,
        ) as mgr:
            record = mgr.submit("alice", "A3526")
            done = mgr.wait(record.job_id, timeout=10)  # parent of the fix: hangs
            mgr.drain(timeout=10)
        assert journal.failures == 0
        assert done.state is (JobState.FAILED if broken == "fail" else JobState.COMPLETED)
        assert done.attempts == (3 if transient else 2)
        assert mgr.running_jobs() == 0 and mgr.queue_depth() == 0
        replayed = assert_live_equals_replay(mgr)
        # the attempt whose line was lost is not charged, live or replayed
        costs = [line["cost"] for line in journal.events() if "cost" in line]
        assert sum(costs) == replayed.usage["alice"]


def test_live_record_is_the_json_round_trip_of_its_line(tmp_path):
    """Options JSON changes (tuples, int keys) read the same live as replayed."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    mgr = WorkloadManager(None, journal=journal)
    live = mgr.submit("alice", "A3526", {"bands": ("g", "r"), "cuts": {1: 2.5}})
    assert live.spec.options_dict() == {"bands": ["g", "r"], "cuts": {"1": 2.5}}
    assert_live_equals_replay(mgr)
    assert live.signature == journal.replay().jobs[live.job_id].signature


# -- the property: generated legal streams -----------------------------------------
#: The documented transition table (docs/scheduler.md), restated as the oracle.
LEGAL = {
    "queued": {"start": "running", "cancel": "cancelled"},
    "running": {  # in a stream also "interrupted": whatever QUEUED allows, too
        "start": "running",
        "cancel": "cancelled",
        "requeue": "queued",
        "complete": "completed",
        "fail": "failed",
    },
}
#: What the generator draws from: LEGAL's events, weighted towards
#: progress (drawn evenly, most jobs would die queued).
MENU = {
    "queued": ("start",) * 4 + ("cancel",),
    "running": ("complete", "fail", "start", "cancel") + ("requeue",) * 3,
}
assert {state: set(menu) for state, menu in MENU.items()} == {
    state: set(events) for state, events in LEGAL.items()
}
USERS = ("alice", "bob", "carol")

steps = st.lists(
    st.tuples(
        st.sampled_from(("submit", "rescue") + ("transition",) * 6),  # what to do
        st.integers(0, 11),  # which job / user / cluster
        st.integers(0, 11),  # which of the events legal in the job's state
        st.floats(0.0, 8.0, allow_nan=False),  # the attempt's cost
    ),
    min_size=12,  # every prefix is checked, so short streams are covered too
    max_size=40,
)


def build_stream(choices) -> list[dict]:
    """Interpret ``choices`` as a legal journal: every event is drawn from
    the events :data:`LEGAL` allows in the chosen job's current state."""
    lines: list[dict] = []
    model: dict[str, str] = {}
    signatures: dict[str, str] = {}
    for n, (kind, pick, which, cost) in enumerate(choices):
        line: dict = {"ts": 1000.0 + n}
        if kind == "submit" or not model:
            spec = JobSpec.create(USERS[pick % len(USERS)], f"C{pick % 4}")
            record = JobRecord(
                job_id=f"job-{len(model):06d}-test",
                spec=spec,
                signature=derivation_signature(spec),
                seq=len(model),
                submitted_at=float(n),
            )
            line.update(event="submit", job=record.as_record())
            model[record.job_id] = "queued"
            signatures[record.job_id] = record.signature
        else:
            job_id = sorted(model)[pick % len(model)]
            if kind == "rescue":
                nodes = [f"n{i}" for i in range(pick % 3)]
                line.update(event="rescue", signature=signatures[job_id], nodes=nodes)
            else:
                legal = LEGAL.get(model[job_id])
                if legal is None:
                    continue  # terminal: nothing may follow
                menu = MENU[model[job_id]]
                event = menu[which % len(menu)]
                line.update(event=event, job_id=job_id)
                if event == "start":
                    line["started_at"] = float(n)
                elif event in ("complete", "fail", "requeue"):
                    line.update(cost=cost, resumed_nodes=pick % 5)
                    if event != "complete":
                        line["error"] = f"attempt ended at {n}"
                if legal[event] in ("completed", "failed", "cancelled"):
                    line["finished_at"] = float(n)
                model[job_id] = legal[event]
        lines.append(line)
    return lines


@settings(max_examples=100, deadline=None)
@given(steps)
def test_incremental_apply_equals_replay_at_every_prefix(choices):
    lines = build_stream(choices)
    state = JournalState()
    journal = JobJournal(None)
    charged: dict[str, float] = {}
    terminal: dict[str, JobState] = {}
    for n, line in enumerate(lines, 1):
        record = state.apply(line)
        # every job reaches at most one terminal state
        for job_id, reached in terminal.items():
            assert state.jobs[job_id].state is reached
        if record is not None and record.terminal:
            terminal[record.job_id] = record.state
        if "cost" in line:
            user = state.jobs[line["job_id"]].spec.user
            charged[user] = charged.get(user, 0.0) + line["cost"]
        assert state.usage == charged  # usage == sum of cost, in line order

        # replay(prefix) is the incremental state + the interrupted-RUNNING rule
        interrupted = copy.deepcopy(state)
        for job in interrupted.jobs.values():
            if job.state is JobState.RUNNING:
                job.state, job.started_at = JobState.QUEUED, None
        assert replay_events(lines[:n]) == interrupted

        # a manager built on the prefix exposes exactly its replay
        payload = {k: v for k, v in line.items() if k not in ("ts", "event")}
        journal.append(line["event"], **payload)
        expected = journal.replay()
        manager = WorkloadManager(None, journal=journal)
        assert [durable(r) for r in manager.jobs()] == [
            durable(r) for r in expected.jobs.values()
        ]
        assert manager.fair_share_usage() == expected.usage
        assert manager._state.rescue == expected.rescue
        queued = [r for r in expected.jobs.values() if r.state is JobState.QUEUED]
        assert manager._queue == [r.job_id for r in sorted(queued, key=lambda r: r.seq)]
        assert manager.queue_depth() == len(queued)

    # the fold is deterministic
    assert replay_events(lines) == replay_events(lines)
