"""Integration tests: the full system across module boundaries."""

from __future__ import annotations

import zlib

import pytest

from repro.portal.campaign import run_campaign
from repro.portal.demo import build_demo_environment
from repro.portal.analysis import analyze_morphology_catalog
from repro.catalog.coords import SkyPosition
from repro.sky.cluster import ClusterModel


def cluster(name, n, seed=2003, **kwargs):
    defaults = dict(
        name=name,
        # crc32, not hash(): the builtin string hash is salted per process
        # (PYTHONHASHSEED), and a shifted RA can overlap one extra context
        # tile — the image accounting below must be run-to-run stable.
        center=SkyPosition(150.0 + zlib.crc32(name.encode()) % 40, 2.2),
        redshift=0.05,
        n_galaxies=n,
        core_radius_deg=0.04,
        tidal_radius_deg=0.4,
        seed=seed,
        context_image_count=9,
    )
    defaults.update(kwargs)
    return ClusterModel(**defaults)


class TestFullPipeline:
    def test_two_cluster_campaign_accounting(self):
        clusters = [cluster("INT-A", 10), cluster("INT-B", 14)]
        env = build_demo_environment(clusters=clusters, seed_virtual_data_reuse=False)
        report = run_campaign(env, analyze=False)
        assert report.clusters == 2
        assert sum(r.accounting.galaxies for r in report.records) == 24
        # one galMorph per galaxy + one concat per cluster
        assert report.totals.compute_jobs == 24 + 2
        # stage-in per galaxy + inter-site result moves + one final per cluster
        assert report.totals.transfers == 2 * 24 + 2
        assert report.totals.images == 24 + 18
        assert report.totals.image_bytes > 0

    def test_virtual_data_reuse_seed_skips_one_stage_in(self):
        clusters = [cluster("INT-C", 12)]
        env = build_demo_environment(clusters=clusters, seed_virtual_data_reuse=True)
        report = run_campaign(env, analyze=False)
        record = report.records[0].accounting
        assert record.stage_in == 11  # one input already at its exec pool
        assert record.inter_site == 12
        assert record.stage_out == 1

    def test_jobs_spread_over_three_pools(self):
        env = build_demo_environment(clusters=[cluster("INT-D", 12)], seed_virtual_data_reuse=False)
        report = run_campaign(env, analyze=False)
        per_site = report.records[0].accounting.jobs_per_site
        assert set(per_site) == {"isi", "uwisc", "fnal", "nvo-storage"}
        # round-robin: the 12 galMorph jobs split 4/4/4
        assert per_site["isi"] == per_site["uwisc"] == per_site["fnal"] == 4

    def test_random_site_selection_also_completes(self):
        env = build_demo_environment(
            clusters=[cluster("INT-E", 10)],
            site_selection="random",
            seed_virtual_data_reuse=False,
        )
        report = run_campaign(env, analyze=False)
        assert report.records[0].accounting.compute_jobs == 11

    def test_dressler_rediscovered_end_to_end(self):
        env = build_demo_environment(clusters=[cluster("INT-F", 80)], seed_virtual_data_reuse=False)
        session = env.portal.run_analysis("INT-F")
        analysis = analyze_morphology_catalog(session.merged, session.cluster)
        assert analysis.rediscovered
        assert analysis.concentration_radius_spearman < 0

    def test_provenance_of_final_votable(self):
        env = build_demo_environment(clusters=[cluster("INT-G", 6)], seed_virtual_data_reuse=False)
        env.portal.run_analysis("INT-G")
        lineage = env.vds.provenance.lineage("INT-G-morphology.vot")
        transformations = {r.transformation for r in lineage}
        assert transformations == {"concatVOTable", "galMorph"}
        assert len(lineage) == 7  # 1 concat + 6 galMorph

    def test_simulated_campaign_reports_makespan(self):
        env = build_demo_environment(
            clusters=[cluster("INT-H", 10)],
            execution_mode="simulate",
            seed_virtual_data_reuse=False,
        )
        session = env.portal.select_cluster("INT-H")
        env.portal.build_catalog(session)
        vot = env.portal.resolve_cutouts(session)
        url = env.compute_service.gal_morph_compute(vot, "h.vot", "INT-H")
        assert env.compute_service.poll(url).state == "completed"
        request = list(env.compute_service.requests.values())[-1]
        assert request.report.makespan > 0
        assert request.report.succeeded


class TestFaultToleranceEndToEnd:
    def test_invalid_galaxies_do_not_fail_run(self):
        """§4.3.1(4): bad-quality images produce invalid rows, not failures."""
        env = build_demo_environment(clusters=[cluster("INT-I", 40)], seed_virtual_data_reuse=False)
        session = env.portal.run_analysis("INT-I")
        validity = [row["valid"] for row in session.merged]
        assert len(validity) == 40
        # the synthetic sky includes faint members that fail measurement
        # while the run as a whole completes
        assert all(isinstance(v, bool) for v in validity)

    def test_simulated_job_failures_recovered_by_retries(self):
        env = build_demo_environment(
            clusters=[cluster("INT-J", 20)],
            execution_mode="simulate",
            failure_rate=0.15,
            max_retries=5,
            seed_virtual_data_reuse=False,
        )
        session = env.portal.select_cluster("INT-J")
        env.portal.build_catalog(session)
        vot = env.portal.resolve_cutouts(session)
        url = env.compute_service.gal_morph_compute(vot, "j.vot", "INT-J")
        assert env.compute_service.poll(url).state == "completed"
        request = list(env.compute_service.requests.values())[-1]
        assert request.report.retries > 0


class TestDiscoveryDrivenPortal:
    def test_discovery_environment_runs(self):
        env = build_demo_environment(
            clusters=[cluster("INT-K", 10)], discovery=True, seed_virtual_data_reuse=False
        )
        assert env.resource_registry is not None
        assert len(env.resource_registry) == 10  # 5 services + 5 mirrors
        session = env.portal.run_analysis("INT-K")
        assert len(session.merged) == 10

    def test_archive_outage_fails_over_mid_session(self):
        from repro.core.errors import ServiceError

        env = build_demo_environment(
            clusters=[cluster("INT-L", 8)], discovery=True, seed_virtual_data_reuse=False
        )
        # cut the primary optical archive before the user arrives
        primary = env.resource_registry.resource("ivo://nvo/dss")

        def outage(*args, **kwargs):
            raise ServiceError("DSS down for maintenance")

        primary.service.query = outage
        session = env.portal.run_analysis("INT-L")
        assert len(session.merged) == 8
        facade = env.portal.optical_archive
        assert facade.failures.get("ivo://nvo/dss") == 1
        assert facade.active_identifier == "ivo://mirror/dss"

    def test_non_discovery_environment_has_no_registry(self):
        env = build_demo_environment(clusters=[cluster("INT-M", 6)], seed_virtual_data_reuse=False)
        assert env.resource_registry is None
