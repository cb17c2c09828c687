"""The multi-process fleet: routing, byte-identity, crash rebalance.

These tests spawn real worker processes (multiprocessing ``spawn``), so
they are the closest thing to the chaos campaign that still runs inside
the tier-1 suite — kept small (2-4 shards, the real portal runner on
six-member generated clusters, jobs of tens of milliseconds) so the whole
module stays in single-digit seconds.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.core.errors import SchedulerError
from repro.scheduler.job import JobSpec, JobState, derivation_signature
from repro.scheduler.journal import JobJournal
from repro.shard.fleet import ShardFleet, iter_shard_assignments
from repro.shard.ring import ConsistentHashRing
from repro.sky.registry_data import demonstration_cluster

from tests.shard.conftest import CLUSTERS, MODELS, expected_bytes


def _fleet(tmp_path, shards: int = 2, **kwargs) -> ShardFleet:
    kwargs.setdefault("clusters", MODELS)
    return ShardFleet(tmp_path / "fleet", shards=shards, **kwargs)


class TestRoutingAndIdentity:
    def test_submissions_route_by_tile_and_complete_byte_identical(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            records = [fleet.submit("alice", c) for c in CLUSTERS]
            for record in records:
                tile_id, shard = fleet.placement(record.spec.cluster)
                assert record.job_id.startswith(f"{shard}-job-")
                assert record.shard == shard
                assert record.extra["tile"] == tile_id
            for record in records:
                done = fleet.wait(record.job_id, timeout=30.0)
                assert done.state is JobState.COMPLETED
                assert fleet.result_bytes(record.job_id) == expected_bytes(
                    record.spec.cluster
                )
            assert fleet.queue_depth() == 0
        assert fleet.leaked_processes() == []

    def test_matches_the_shard_map(self, tmp_path):
        with _fleet(tmp_path, shards=4) as fleet:
            assignments = iter_shard_assignments(
                CLUSTERS, ConsistentHashRing(fleet.shard_names())
            )
            for shard, placed in assignments.items():
                for cluster, tile_id in placed:
                    assert fleet.placement(cluster) == (tile_id, shard)

    def test_jobs_and_snapshot_span_every_shard(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for cluster in CLUSTERS:
                fleet.submit("alice", cluster)
            fleet.drain(timeout=30.0)
            listed = fleet.jobs()
            assert len(listed) == len(CLUSTERS)
            assert {r.spec.cluster for r in listed} == set(CLUSTERS)
            snap = fleet.snapshot()
            assert snap["sharded"] is True
            assert len(snap["jobs"]) == len(CLUSTERS)
            assert set(snap["shards"]) == set(fleet.shard_names())
            assert {j["shard"] for j in snap["jobs"]} <= set(snap["shards"])

    def test_unknown_job_raises(self, tmp_path):
        from repro.core.errors import UnknownJobError

        with _fleet(tmp_path) as fleet:
            with pytest.raises(UnknownJobError):
                fleet.job("s0-job-999999-ffffff")
            with pytest.raises(UnknownJobError):
                fleet.job("not-even-an-id")

    @pytest.mark.parametrize("kind", ["ResultGoneError", "QuotaExceededError"])
    def test_remote_errors_cross_the_pipe_typed(self, kind):
        from repro.core import errors
        from repro.shard.worker import raise_remote

        with pytest.raises(getattr(errors, kind), match=r"^\[s1\] gone"):
            raise_remote({"ok": False, "kind": kind, "error": "gone"}, "s1")


class TestFairShareAndHealth:
    def test_global_usage_spans_shards(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            for i, cluster in enumerate(CLUSTERS):
                fleet.submit("alice" if i % 2 else "bob", cluster)
            fleet.drain(timeout=30.0)
            usage = fleet.fair_share_usage()
            assert usage.get("alice", 0.0) > 0.0
            assert usage.get("bob", 0.0) > 0.0
            debts = fleet.fair_share_debts()
            assert set(debts) == {"alice", "bob"}

    def test_failed_attempts_stay_charged_after_the_shard_dies(self, tmp_path):
        # Under ``grid-down`` the job fails for good, and its attempt's cost
        # must survive the owner's death — the coordinator rebuilds the
        # ledger from the journal alone.
        with _fleet(
            tmp_path, fault_profile="grid-down", clusters=(demonstration_cluster("A3526"),)
        ) as fleet:
            failed = fleet.wait(fleet.submit("alice", "A3526").job_id, timeout=60.0)
            assert failed.state is JobState.FAILED
            live = fleet.fair_share_usage()
            assert live["alice"] > 0.0
            fleet.kill_worker(failed.shard)
            assert fleet.fair_share_usage() == live
            archived = fleet.job(failed.job_id)
            assert (archived.state, archived.error) == (failed.state, failed.error)
            assert archived.run_seconds == failed.run_seconds

    def test_shard_health_reports_every_worker(self, tmp_path):
        with _fleet(tmp_path) as fleet:
            health = fleet.shard_health()
            assert health["alive"] == 2
            assert health["dead"] == []
            for name in fleet.shard_names():
                assert health["shards"][name]["alive"] is True
                assert health["shards"][name]["pid"] > 0


class TestCrashRebalance:
    def test_sigkill_mid_flight_rebalances_byte_identical(self, tmp_path):
        with _fleet(tmp_path, shards=4, max_workers=1) as fleet:
            records = [fleet.submit("alice", c) for c in CLUSTERS]
            by_shard: dict[str, int] = {}
            for record in records:
                by_shard[record.shard] = by_shard.get(record.shard, 0) + 1
            victim = max(sorted(by_shard), key=lambda s: by_shard[s])
            fleet.kill_worker(victim)

            assert victim not in fleet.shard_names()
            assert victim not in fleet.ring
            # every original id still answers, via aliases where relocated
            for record in records:
                done = fleet.wait(record.job_id, timeout=60.0)
                assert done.state is JobState.COMPLETED
                assert fleet.result_bytes(record.job_id) == expected_bytes(
                    record.spec.cluster
                )
            health = fleet.shard_health()
            assert health["dead"] == [victim]
            assert health["alive"] == 3

            # the union replay is stable: crash recovery left a replayable story
            first = fleet.global_fingerprint()
            second = fleet.global_fingerprint()
            assert first == second and first
        assert fleet.leaked_processes() == []

    def test_merged_journals_stay_disjoint_after_rebalance(self, tmp_path):
        with _fleet(tmp_path, shards=3, max_workers=1) as fleet:
            records = [fleet.submit("alice", c) for c in CLUSTERS]
            victim = records[0].shard
            fleet.kill_worker(victim)
            for record in records:
                fleet.wait(record.job_id, timeout=60.0)
            merged = fleet.merged_journal_state()  # raises on duplicate ids
            # merged view holds the dead shard's story plus the relocations
            assert len(merged.jobs) >= len(CLUSTERS)
        assert fleet.leaked_processes() == []


class TestCrossShardReuse:
    def test_foreign_store_entry_short_circuits_compute(self, tmp_path):
        content = expected_bytes("FT00", {"pass": 2})
        signature = derivation_signature(JobSpec.create("alice", "FT00", {"pass": 2}))
        fleet = _fleet(tmp_path)
        # some earlier topology's shard already materialised the product
        fleet.store.store(signature, content, shard="retired-shard")
        with fleet:
            record = fleet.submit("bob", "FT00", options={"pass": 2})
            done = fleet.wait(record.job_id, timeout=30.0)
            assert done.state is JobState.COMPLETED
            assert done.cache_hit is True
            assert fleet.result_bytes(record.job_id) == content
            assert fleet.cross_shard_hits() == 1
        assert fleet.leaked_processes() == []

    def test_results_survive_their_shard_through_the_store(self, tmp_path):
        with _fleet(tmp_path, shards=2) as fleet:
            record = fleet.submit("alice", "FT03")
            done = fleet.wait(record.job_id, timeout=30.0)
            owner = done.shard
            fleet.kill_worker(owner)
            # terminal job archived; bytes still answerable via the store
            assert fleet.result_bytes(record.job_id) == expected_bytes("FT03")
            assert fleet.job(record.job_id).state is JobState.COMPLETED
        assert fleet.leaked_processes() == []


class TestOneFleetPerDataDir:
    """Shard journals have one writer each, so a data dir serves one fleet."""

    def test_a_second_fleet_fails_fast_names_the_journal_and_leaks_nothing(self, tmp_path):
        with _fleet(tmp_path) as first:
            children = set(mp.active_children())
            second = _fleet(tmp_path)
            with pytest.raises(SchedulerError, match="another writer holds this journal") as exc:
                second.start()
            assert "journal-s0.jsonl" in str(exc.value)
            assert set(mp.active_children()) == children
            assert second.leaked_processes() == []
            record = first.submit("alice", CLUSTERS[0])  # the first fleet still serves
            assert first.wait(record.job_id, timeout=30.0).state is JobState.COMPLETED
        assert first.leaked_processes() == []

    def test_a_refused_shard_closes_the_shards_already_up(self, tmp_path):
        fleet = _fleet(tmp_path)
        held = JobJournal(fleet.journal_path("s1"))
        held.open()
        children = set(mp.active_children())
        try:
            with pytest.raises(SchedulerError, match="journal-s1.jsonl"):
                fleet.start()
            assert fleet.leaked_processes() == []  # s0 came up, then was closed
            assert set(mp.active_children()) == children
        finally:
            held.close()
