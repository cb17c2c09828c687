"""End-to-end workload-manager tests over the real demonstration Grid.

These are the ISSUE acceptance scenarios: concurrent multi-tenant
campaigns produce byte-identical per-cluster results, identical
resubmissions are answered from the RLS-backed cache with zero compute,
and a failed Grid run leaves rescue-DAG state that a resubmission resumes
from (only the remainder executes).
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.catalog.coords import SkyPosition
from repro.portal.demo import build_demo_environment
from repro.scheduler import JobState, WorkloadManager
from repro.scheduler.service import run_clusters
from repro.sky.cluster import ClusterModel
from repro.votable.writer import write_votable


def cluster(name: str, n: int, ra: float) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(ra, 4.0),
        redshift=0.04,
        n_galaxies=n,
        seed=11,
        context_image_count=5,
    )


CLUSTERS = [
    cluster("WM-A", 6, ra=20.0),
    cluster("WM-B", 7, ra=60.0),
    cluster("WM-C", 8, ra=100.0),
    cluster("WM-D", 9, ra=140.0),
]


def build_env(**kwargs):
    kwargs.setdefault("seed_virtual_data_reuse", False)
    return build_demo_environment(clusters=CLUSTERS, **kwargs)


@pytest.fixture()
def metrics_registry():
    telemetry.enable()
    yield telemetry.get_registry()
    telemetry.disable()


class TestConcurrentCampaigns:
    def test_twenty_jobs_four_users_byte_identical_to_sequential(self):
        # Sequential ground truth: one fresh environment, one pass per cluster.
        seq_env = build_env()
        expected: dict[str, bytes] = {}
        for model in CLUSTERS:
            session = seq_env.portal.run_analysis(model.name)
            assert session.merged is not None
            expected[model.name] = write_votable(
                session.merged, namespaced=True
            ).encode("utf-8")

        # Concurrent run: 20 jobs from 4 users over a shared environment.
        env = build_env()
        users = ("alice", "bob", "carol", "dave")
        with WorkloadManager.for_environment(env, max_workers=4) as mgr:
            records = [
                mgr.submit(users[i % len(users)], CLUSTERS[i % len(CLUSTERS)].name)
                for i in range(20)
            ]
            mgr.drain(timeout=600)
            for record in records:
                assert mgr.job(record.job_id).state is JobState.COMPLETED, (
                    mgr.job(record.job_id).error
                )
            produced = {r.job_id: mgr.result_bytes(r.job_id) for r in records}

        for record in records:
            assert produced[record.job_id] == expected[record.spec.cluster], (
                f"{record.job_id} ({record.spec.cluster}) diverged from the "
                "sequential baseline"
            )
        # Only 4 distinct derivations exist; dedup + cache answered the rest.
        unique_misses = sum(1 for r in records if not r.cache_hit)
        assert unique_misses == len(CLUSTERS)

    def test_two_slots_keep_each_clusters_site_independent_accounting(self):
        """Only site choice may move with concurrency: galaxies, compute
        jobs, transfers by kind, images and bytes equal a one-slot run's."""

        def site_independent(max_workers):
            jobs = run_clusters(build_env(), ["WM-A", "WM-B"], max_workers=max_workers)
            out = {}
            for record, _ in jobs:
                assert record.state is JobState.COMPLETED, record.error
                a = record.accounting
                out[record.spec.cluster] = (
                    a.galaxies, a.compute_jobs, a.stage_in, a.inter_site,
                    a.stage_out, a.images, a.image_bytes,
                )
            return out

        serial = site_independent(1)
        assert serial == site_independent(2)
        assert serial["WM-A"][:2] == (6, 7)

    def test_no_tenant_starves_under_saturation(self):
        env = build_env()
        users = ("alice", "bob", "carol", "dave")
        with WorkloadManager.for_environment(env, max_workers=2) as mgr:
            records = [
                # Distinct options per job: every derivation is unique, so
                # nothing short-circuits through the cache.
                mgr.submit(
                    users[i % len(users)],
                    CLUSTERS[i % len(CLUSTERS)].name,
                    {"salt": i},
                )
                for i in range(12)
            ]
            mgr.drain(timeout=600)
        import statistics

        waits: dict[str, list[float]] = {}
        for record in records:
            assert record.wait_seconds is not None
            waits.setdefault(record.spec.user, []).append(record.wait_seconds)
        global_median = statistics.median(
            w for per_user in waits.values() for w in per_user
        )
        for user, user_waits in waits.items():
            assert statistics.median(user_waits) <= 2.0 * global_median + 0.1, (
                f"{user}: median wait {statistics.median(user_waits):.3f}s "
                f"vs global {global_median:.3f}s"
            )


class TestCacheReuse:
    def test_identical_resubmission_zero_compute(self, metrics_registry):
        env = build_env()
        with WorkloadManager.for_environment(env, max_workers=2) as mgr:
            first = mgr.submit("alice", "WM-A")
            mgr.wait(first.job_id, timeout=300)
            requests_before = len(env.compute_service.requests)
            hits = metrics_registry.counter("scheduler_cache_hits_total")
            hits_before = sum(value for _, value in hits.samples())

            second = mgr.submit("bob", "WM-A")
            done = mgr.wait(second.job_id, timeout=300)

            assert done.state is JobState.COMPLETED and done.cache_hit
            # Zero compute: the portal flow never ran for the resubmission.
            assert len(env.compute_service.requests) == requests_before
            assert sum(value for _, value in hits.samples()) == hits_before + 1
            # The product resolves through the same RLS mapping.
            assert done.result_lfn == first.result_lfn
            assert env.vds.rls.exists(done.result_lfn)
            assert mgr.result_bytes(second.job_id) == mgr.result_bytes(first.job_id)


class TestRescueResumeThroughResubmission:
    def test_resubmission_resumes_only_the_remainder(self):
        env = build_env(max_retries=1)
        concat_node = "job-dv-concat-WM-B-morphology.vot"
        # First run: the concat node fails beyond its retry budget.
        env.vds.simulation_options.forced_failures[concat_node] = 99

        with WorkloadManager.for_environment(env, max_workers=1) as mgr:
            first = mgr.submit("alice", "WM-B")
            failed = mgr.wait(first.job_id, timeout=300)
            assert failed.state is JobState.FAILED

            rescue = mgr.rescue_state(first.signature)
            # Only derivation-named compute nodes are banked: they are the
            # ids that stay meaningful across the resubmission's replan.
            assert rescue == {f"job-dv-WM-B-{i:04d}" for i in range(7)}
            assert concat_node not in rescue

            # Lose the intermediate RLS registrations (the bytes survive at
            # the sites).  Without them Pegasus reduction cannot prune the
            # galaxy nodes, so completing without recompute *requires* the
            # rescue resume to pre-mark them DONE.
            for i in range(7):
                lfn = f"WM-B-{i:04d}.txt"
                for replica in env.vds.rls.lookup(lfn):
                    env.vds.rls.unregister(lfn, replica.site, replica.pfn)

            # The operator clears the fault and the tenant resubmits.
            del env.vds.simulation_options.forced_failures[concat_node]
            second = mgr.submit("alice", "WM-B")
            done = mgr.wait(second.job_id, timeout=300)

            assert done.state is JobState.COMPLETED, done.error
            # The service pre-marked all seven rescued nodes DONE...
            assert done.resumed_nodes == 7
            # ...and executed only the remainder: the concat node itself.
            request = list(env.compute_service.requests.values())[-1]
            assert request.report is not None
            executed = [r.node_id for r in request.report.compute_runs]
            assert executed == [concat_node]
            # Success clears the banked rescue state.
            assert mgr.rescue_state(first.signature) == set()
            assert mgr.result_bytes(second.job_id)


class TestLongLivedServerState:
    def test_two_hundred_warm_resubmits_leave_bounded_state(self, monkeypatch):
        """A job must not leave an event, a status page or a request record
        behind forever: each store keeps its most recent N (here shrunk so
        200 jobs overflow all three) and the answers do not change."""
        from repro.portal import service, status
        from repro.scheduler.job import JobSpec
        from repro.scheduler.runner import PortalJobRunner
        from repro.utils import events

        monkeypatch.setattr(events, "EVENTS_KEPT", 64)
        monkeypatch.setattr(status, "PAGES_KEPT", 8)
        monkeypatch.setattr(service, "REQUESTS_KEPT", 8)
        env = build_demo_environment(clusters=[cluster("SOAK", 5, ra=30.0)])
        runner = PortalJobRunner(env)
        cold = runner.run(JobSpec.create("alice", "SOAK"), None)
        assert cold.accounting.compute_jobs > 0
        for i in range(200):
            warm = runner.run(JobSpec.create("alice", "SOAK", {"round": i}), None)
            assert warm.result_bytes == cold.result_bytes
            # RLS short circuit: the same catalog, and no Grid work or
            # cutouts charged to the job.
            assert (warm.accounting.compute_jobs, warm.resumed_nodes) == (0, 0)
            assert warm.accounting.galaxies == cold.accounting.galaxies
            assert (warm.accounting.images, warm.accounting.image_bytes) == (0, 0)
        assert len(list(env.events)) == 64
        assert len(env.compute_service.status._pages) == 8  # noqa: SLF001
        assert len(env.compute_service.requests) == 8
        assert all(r.short_circuited for r in env.compute_service.requests.values())
