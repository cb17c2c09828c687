"""Journal crash-replay while a serving stack writes the journal.

The journal is the only shared state between a serving tier and whatever
restarts after a crash.  These tests submit over real HTTP (so the journal
is being appended to by a live serving stack's job threads) while a
lock-free reader replays the same file mid-flight, then assert replay
fingerprint stability and exact agreement with what the manager saw.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp

from repro.scheduler import (
    JobJournal,
    WorkloadManager,
    global_fingerprint,
    merge_states,
)
from repro.scheduler.job import JobState
from repro.serve.harness import build_serving_stack
from repro.serve.loadgen import http_request

from tests.doubles import SyntheticJobRunner
from tests.serve.conftest import tiny_cluster

TENANTS = ("alice", "bob", "carol")


def run_serve_session(journal_path, submits: int) -> dict:
    """Boot a journaled stack, submit ``submits`` jobs over HTTP with
    concurrent mid-flight replays, drain, and return what the manager saw."""

    async def session() -> dict:
        stack = build_serving_stack(
            runner=SyntheticJobRunner(),
            clusters=[tiny_cluster()],
            journal_path=str(journal_path),
            port=0,
        )
        mid_flight: list = []
        async with stack:
            host, port = stack.server.host, stack.server.port

            async def submit(i: int) -> int:
                status, _, _ = await http_request(
                    host,
                    port,
                    "POST",
                    "/jobs",
                    headers=[
                        ("X-Tenant", TENANTS[i % len(TENANTS)]),
                        ("Content-Type", "application/json"),
                    ],
                    body=json.dumps(
                        {"cluster": "SRV01", "options": {"seq": i}}
                    ).encode(),
                )
                return status

            async def replay_while_submitting() -> None:
                # a reader replaying the journal the server is appending
                for _ in range(8):
                    state = await asyncio.to_thread(
                        lambda: JobJournal(journal_path).replay()
                    )
                    mid_flight.append(state)
                    await asyncio.sleep(0.01)

            statuses, _ = await asyncio.gather(
                asyncio.gather(*(submit(i) for i in range(submits))),
                replay_while_submitting(),
            )
            assert all(s == 202 for s in statuses), statuses

            while stack.manager.queue_depth() or stack.manager.running_jobs():
                await asyncio.sleep(0.02)
            return {
                "jobs": {r.job_id: r.state for r in stack.manager.jobs()},
                "mid_flight": mid_flight,
            }

    return asyncio.run(session())


class TestReplayWhileServing:
    def test_fingerprint_stable_and_complete_after_crash(self, tmp_path):
        journal_path = tmp_path / "serve-journal.jsonl"
        seen = run_serve_session(journal_path, submits=18)

        # every mid-flight replay was a valid prefix: monotone job counts,
        # never a half-written record exploding the reader
        counts = [len(state.jobs) for state in seen["mid_flight"]]
        assert counts == sorted(counts)

        # the "crash": the serving process is gone; replay twice
        first = JobJournal(journal_path).replay()
        second = JobJournal(journal_path).replay()
        assert first.fingerprint() == second.fingerprint()

        # nothing lost, nothing duplicated, terminal states journaled
        assert set(first.jobs) == set(seen["jobs"])
        for job_id, record in first.jobs.items():
            assert record.state is JobState.COMPLETED
            assert record.state is seen["jobs"][job_id]

    def test_restarted_manager_resumes_the_replayed_queue(self, tmp_path):
        journal_path = tmp_path / "serve-journal.jsonl"
        run_serve_session(journal_path, submits=9)

        # a writer that journals a job and dies before running it
        journal = JobJournal(journal_path)
        state = journal.replay()
        dying = WorkloadManager(runner=None, journal=journal)
        orphan = dying.submit("dave", "SRV01", {"orphan": True})
        dying.close()

        restarted = WorkloadManager(
            SyntheticJobRunner(), journal=JobJournal(journal_path)
        )
        assert restarted.queue_depth() == 1  # only the orphan is non-terminal
        assert orphan.job_id in {r.job_id for r in restarted.jobs()}
        fingerprint = JobJournal(journal_path).replay().fingerprint()
        assert fingerprint == JobJournal(journal_path).replay().fingerprint()
        assert len(restarted.jobs()) == len(state.jobs) + 1


def _shard_writer(journal_path: str, shard: str, submits: int) -> None:
    """One fleet shard's life, in miniature: journal every transition."""
    manager = WorkloadManager(
        SyntheticJobRunner(0.001, 0.002),
        journal=JobJournal(journal_path),
        shard=shard,
        max_workers=2,
    )
    manager.start()
    try:
        for i in range(submits):
            manager.submit(TENANTS[i % len(TENANTS)], f"MP{shard}-{i % 4}")
        manager.drain(timeout=60.0)
    finally:
        manager.close()


class TestInterleavedShardWriters:
    """Two *processes* appending to separate shard journals, replayed globally.

    The fleet's invariant: per-shard journals are independently owned
    (no cross-process file contention), yet their union replays into one
    consistent, stably-fingerprinted global state — shard-prefixed job ids
    keep the namespaces disjoint by construction.
    """

    SUBMITS = 12

    def _run_writers(self, tmp_path) -> list:
        ctx = mp.get_context("spawn")
        paths = [tmp_path / f"journal-s{i}.jsonl" for i in range(2)]
        procs = [
            ctx.Process(
                target=_shard_writer, args=(str(path), f"s{i}", self.SUBMITS)
            )
            for i, path in enumerate(paths)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120.0)
            assert proc.exitcode == 0
        return paths

    def test_global_replay_is_stable_and_disjoint(self, tmp_path):
        paths = self._run_writers(tmp_path)

        # merge raises on duplicate ids; prefixed ids keep shards disjoint
        merged = merge_states(JobJournal(p).replay() for p in paths)
        assert len(merged.jobs) == 2 * self.SUBMITS
        shards = {record.shard for record in merged.jobs.values()}
        assert shards == {"s0", "s1"}
        assert all(r.state is JobState.COMPLETED for r in merged.jobs.values())

        # the global fingerprint is a pure function of the journal set
        first = global_fingerprint(paths)
        second = global_fingerprint(paths)
        assert first == second
        assert len(first) == 2 * self.SUBMITS
        assert global_fingerprint(reversed(paths)) == first

    def test_usage_ledgers_sum_across_shard_journals(self, tmp_path):
        paths = self._run_writers(tmp_path)
        merged = merge_states(JobJournal(p).replay() for p in paths)
        per_shard = [JobJournal(p).replay().usage for p in paths]
        for tenant in TENANTS:
            expected = sum(usage.get(tenant, 0.0) for usage in per_shard)
            assert merged.usage.get(tenant, 0.0) == expected
            assert expected > 0.0
