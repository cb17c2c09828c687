#!/usr/bin/env python
"""CI smoke test: concurrent submissions, then live state == journal replay.

Fires N concurrent ``submit`` calls from three users at one journaled
workload manager, replays the journal twice and asserts the replayed
queue is identical both times and matches what was submitted — no job
lost, none duplicated, ordering stable.  A second writer, started in a
child process while the manager holds the journal, must be refused with
the named error.  A restarted manager then *runs* the queue against a
runner that completes, requeues and fails jobs, and every field the
journal's ``apply`` sets — plus the usage ledger and the rescue sets — is
compared between the live manager and a replay of its journal.  Then a
writer is SIGKILLed mid-append, still holding the journal's lock: the
next manager must get the lock (the kernel drops a dead writer's), repair
the torn tail, accept a submission and still equal its replay.  Last, a
manager dies mid-attempt: the next one re-runs the interrupted job,
equals its replay, and a third restart reads what the second wrote.  The
journal is the only state a restart has, so live == replay is what makes
a mid-queue crash recoverable.  Each in-process restart closes the
previous manager first, as a dead process's lock is released.

Usage::

    PYTHONPATH=src python scripts/scheduler_smoke.py [--jobs 24] [--journal PATH]

Exits nonzero (with a diagnostic) on any mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from repro.resilience.retry import RetryPolicy
from repro.scheduler import (
    AdmissionPolicy,
    JobFailure,
    JobJournal,
    JobOutcome,
    JobState,
    WorkloadManager,
)

USERS = ("alice", "bob", "carol")
CLUSTERS = ("A3526", "MS0451", "A2029", "A1656")


def fail(message: str) -> "None":
    print(f"scheduler smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


#: JobRecord fields that are process-local by design (never journaled).
PROCESS_LOCAL = {"submitted_at", "not_before", "trace_ctx"}


class FlakyRunner:
    """By submission salt: every sixth job fails transiently once (banking a
    rescue node), every sixth fails for good, the rest complete."""

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self._lock = threading.Lock()

    def run(self, spec, resume_from):
        salt = spec.options_dict()["salt"]
        with self._lock:
            first = salt not in self._seen
            self._seen.add(salt)
        if salt % 6 == 0 and first:
            raise JobFailure("hiccup", rescue_nodes=frozenset({f"n{salt}"}), transient=True)
        if salt % 6 == 1:
            raise JobFailure("bad derivation", rescue_nodes=frozenset({f"n{salt}"}))
        return JobOutcome(result_bytes=b"ok", resumed_nodes=len(resume_from or ()))


def durable(record) -> dict:
    return {
        f.name: getattr(record, f.name)
        for f in dataclasses.fields(record)
        if f.name not in PROCESS_LOCAL
    }


def check_live_equals_replay(manager: WorkloadManager, what: str) -> None:
    """Every durable record field, the usage ledger and the rescue sets."""
    replayed = manager.journal.replay()
    live = manager.jobs()
    if [r.job_id for r in live] != list(replayed.jobs):
        fail(f"{what}: live and replayed job lists differ")
    for mine, theirs in zip(live, replayed.jobs.values()):
        if durable(mine) != durable(theirs):
            fail(f"{what}: {mine.job_id} live {durable(mine)} != replay {durable(theirs)}")
    if manager.fair_share_usage() != replayed.usage:
        fail(f"{what}: usage {manager.fair_share_usage()} != replay {replayed.usage}")
    rescue = {r.signature: manager.rescue_state(r.signature) for r in live}
    rescue = {signature: nodes for signature, nodes in rescue.items() if nodes}
    if rescue != replayed.rescue:
        fail(f"{what}: rescue {rescue} != replay {replayed.rescue}")


#: A second writer while the smoke holds the journal: refused at construction.
SECOND_WRITER = """
import sys
from repro.core.errors import SchedulerError
from repro.scheduler import JobJournal, WorkloadManager
try:
    WorkloadManager(None, journal=JobJournal(sys.argv[1]))
except SchedulerError as exc:
    print(exc, file=sys.stderr)
    raise SystemExit(3)
"""

#: The child of the crash step: a real manager submits once, then dies by
#: SIGKILL halfway through writing its next journal record, holding the lock.
TORN_WRITER = """
import json, os, signal, sys
from repro.scheduler import JobJournal, WorkloadManager
path = sys.argv[1]
WorkloadManager(None, journal=JobJournal(path)).submit("dave", "A3526", {"salt": -1})
record = json.dumps({"ts": 0.0, "event": "start", "job_id": "never-lands"})
with open(path, "a", encoding="utf-8") as fh:
    fh.write(record[: len(record) // 2])
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)
"""


def run(jobs: int, journal_path: Path) -> None:
    journal = JobJournal(journal_path)
    manager = WorkloadManager(
        runner=None,
        journal=journal,
        admission=AdmissionPolicy(
            max_queue_depth=jobs + 8, max_active_per_user=jobs + 8
        ),
    )

    # -- concurrent submissions -------------------------------------------------
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(USERS))

    def submit_for(user: str, indices: range) -> None:
        barrier.wait()  # maximize overlap between the three submitters
        for i in indices:
            try:
                manager.submit(user, CLUSTERS[i % len(CLUSTERS)], {"salt": i})
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

    per_user = jobs // len(USERS)
    threads = [
        threading.Thread(
            target=submit_for,
            args=(user, range(k * per_user, (k + 1) * per_user)),
            name=f"submitter-{user}",
        )
        for k, user in enumerate(USERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        fail(f"{len(errors)} submit(s) raised; first: {errors[0]!r}")

    submitted = jobs - jobs % len(USERS)

    # -- replay twice: identical fingerprints, nothing lost or duplicated -------
    first = JobJournal(journal_path).replay()
    second = JobJournal(journal_path).replay()
    if first.fingerprint() != second.fingerprint():
        fail("two replays of the same journal produced different fingerprints")
    if len(first.jobs) != submitted:
        fail(f"replay recovered {len(first.jobs)} jobs, expected {submitted}")
    seqs = sorted(record.seq for record in first.jobs.values())
    if seqs != list(range(submitted)):
        fail(f"sequence numbers not contiguous/unique: {seqs}")
    job_ids = {record.job_id for record in first.jobs.values()}
    if len(job_ids) != submitted:
        fail("duplicate job ids in the replayed queue")
    if any(record.state is not JobState.QUEUED for record in first.jobs.values()):
        fail("a never-started job replayed in a non-QUEUED state")
    per_user_counts = {user: 0 for user in USERS}
    for record in first.jobs.values():
        per_user_counts[record.spec.user] += 1
    if len(set(per_user_counts.values())) != 1:
        fail(f"uneven per-user recovery: {per_user_counts}")

    # -- one writer: a second one is refused while the manager holds the file ----
    refused = subprocess.run(
        [sys.executable, "-c", SECOND_WRITER, str(journal_path)],
        capture_output=True, text=True,
    )
    if refused.returncode != 3 or "another writer holds this journal" not in refused.stderr:
        fail(f"a second writer was not refused (exit {refused.returncode}): {refused.stderr}")
    if JobJournal(journal_path).replay().fingerprint() != first.fingerprint():
        fail("the refused writer changed the journal")
    manager.close()

    # -- a restarted manager sees the same queue --------------------------------
    restarted = WorkloadManager(
        runner=FlakyRunner(),
        journal=JobJournal(journal_path),
        admission=AdmissionPolicy(
            max_queue_depth=jobs + 8, max_active_per_user=jobs + 8
        ),
        requeue_policy=RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.002, jitter=0.0, seed=1
        ),
    )
    if restarted.queue_depth() != submitted:
        fail(
            f"restarted manager queue depth {restarted.queue_depth()}, "
            f"expected {submitted}"
        )
    if first.fingerprint() != restarted.journal.replay().fingerprint():
        fail("restarted manager's journal diverged from the original replay")

    # -- run the queue: the live manager equals its own replay ------------------
    with restarted:
        restarted.drain(timeout=120.0)
    check_live_equals_replay(restarted, "after the campaign")
    states = {state: 0 for state in JobState}
    for record in restarted.jobs():
        states[record.state] += 1
    if not (states[JobState.COMPLETED] and states[JobState.FAILED]):
        fail(f"the campaign did not exercise both outcomes: {states}")
    if not any(r.attempts == 2 and r.state is JobState.COMPLETED for r in restarted.jobs()):
        fail("no job was requeued and then completed")
    restarted.close()

    # -- SIGKILL mid-append -> restart -> submit -> replay -----------------------
    crashed = subprocess.run([sys.executable, "-c", TORN_WRITER, str(journal_path)])
    if crashed.returncode != -9:
        fail(f"the torn writer exited {crashed.returncode}, expected SIGKILL")
    if journal_path.read_bytes().endswith(b"\n"):
        fail("the killed writer left no torn tail to repair")
    survivor = WorkloadManager(runner=None, journal=JobJournal(journal_path))
    if len(survivor.jobs()) != submitted + 1:
        fail(f"restart after the crash sees {len(survivor.jobs())} jobs")
    survivor.submit("dave", "A3526", {"salt": -2})
    check_live_equals_replay(survivor, "after SIGKILL mid-append")
    with journal_path.open("rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                json.loads(raw)
            except ValueError:
                fail(f"journal line {number} is a fragment: {raw[:60]!r}")
    if len(survivor.jobs()) != submitted + 2:
        fail("the post-crash submission was lost")

    # -- die mid-attempt -> restart -> rerun -> replay -> restart again -----------
    # The file says RUNNING, the restarted manager holds the job QUEUED (that
    # rule writes no line) and journals a second `start`: the stream a
    # recovered manager writes must itself replay.
    interrupted = survivor.jobs()[-2]
    survivor.journal.append("start", job_id=interrupted.job_id, started_at=0.0)
    survivor.close()
    rerun = WorkloadManager(runner=FlakyRunner(), journal=JobJournal(journal_path))
    if rerun.job(interrupted.job_id).state is not JobState.QUEUED:
        fail("an interrupted RUNNING job did not come back QUEUED")
    with rerun:
        rerun.drain(timeout=120.0)
    check_live_equals_replay(rerun, "after re-running an interrupted attempt")
    if rerun.job(interrupted.job_id).attempts != 2:
        fail("the interrupted attempt was not counted")
    rerun.close()
    again = WorkloadManager(runner=None, journal=JobJournal(journal_path))
    if [durable(r) for r in again.jobs()] != [durable(r) for r in rerun.jobs()]:
        fail("a second restart does not see what the first one left")

    print(
        f"scheduler smoke OK: {submitted} concurrent submits from "
        f"{len(USERS)} users; replay fingerprint stable "
        f"({len(first.fingerprint())} entries); live == replay after "
        f"{states[JobState.COMPLETED]} completed / {states[JobState.FAILED]} failed "
        "jobs, a refused second writer, a SIGKILL mid-append and a re-run "
        "interrupted attempt"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=24, help="total submissions")
    parser.add_argument("--journal", default=None, help="journal path (default: temp)")
    args = parser.parse_args(argv)
    if args.journal is not None:
        run(args.jobs, Path(args.journal))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(args.jobs, Path(tmp) / "smoke-journal.jsonl")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
