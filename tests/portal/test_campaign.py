"""Tests for the campaign driver and report aggregation."""

from __future__ import annotations

import pytest

from repro.catalog.coords import SkyPosition
from repro.portal.campaign import CampaignReport, ClusterRunRecord, run_campaign
from repro.portal.demo import build_demo_environment
from repro.scheduler.job import JobAccounting
from repro.sky.cluster import ClusterModel


def cluster(name, n, ra=40.0):
    return ClusterModel(
        name=name,
        center=SkyPosition(ra, 5.0),
        redshift=0.05,
        n_galaxies=n,
        seed=9,
        context_image_count=8,
    )


def accounting(galaxies=10, jobs=11, transfers=21, failed_nodes=0, unrunnable_nodes=0):
    return JobAccounting(
        galaxies=galaxies,
        valid_measurements=galaxies,
        compute_jobs=jobs,
        transfers=transfers,
        stage_in=galaxies,
        inter_site=galaxies,
        stage_out=1,
        images=galaxies + 8,
        image_bytes=galaxies * 20160,
        jobs_per_site={"isi": jobs},
        failed_nodes=failed_nodes,
        unrunnable_nodes=unrunnable_nodes,
    )


def record(name, galaxies=10, jobs=11, transfers=21) -> ClusterRunRecord:
    return ClusterRunRecord(
        cluster=name,
        accounting=accounting(galaxies, jobs, transfers),
        analysis=None,
        error=None,
    )


class TestCampaignReport:
    def test_aggregation(self):
        report = CampaignReport(records=[record("A", 10), record("B", 20, jobs=21, transfers=41)])
        assert report.clusters == 2
        assert sum(r.accounting.galaxies for r in report.records) == 30
        assert report.totals.compute_jobs == 32
        assert report.totals.transfers == 62
        assert report.galaxy_range == (10, 20)
        assert report.pools_used() == ["isi"]

    def test_totals_table_mentions_paper_values(self):
        report = CampaignReport(records=[record("A")])
        table = report.totals_table()
        assert "1152" in table and "2295" in table and "30.0 MB" in table


class TestRunCampaign:
    def test_subset_selection(self):
        clusters = [cluster("CAMP-A", 8, ra=40.0), cluster("CAMP-B", 9, ra=80.0)]
        env = build_demo_environment(clusters=clusters, seed_virtual_data_reuse=False)
        report = run_campaign(env, cluster_names=["CAMP-B"], analyze=False)
        assert report.clusters == 1
        assert report.records[0].cluster == "CAMP-B"
        assert report.records[0].accounting.galaxies == 9

    def test_analysis_skipped_for_tiny_clusters(self):
        # below the 8-valid-row minimum the Dressler statistics are skipped
        env = build_demo_environment(clusters=[cluster("CAMP-C", 6)], seed_virtual_data_reuse=False)
        report = run_campaign(env, analyze=True)
        assert report.records[0].analysis is None  # too few valid rows

    def test_per_cluster_accounting_consistent(self):
        env = build_demo_environment(clusters=[cluster("CAMP-D", 12)], seed_virtual_data_reuse=False)
        report = run_campaign(env, analyze=False)
        r = report.records[0].accounting
        assert r.compute_jobs == r.galaxies + 1
        assert r.transfers == r.stage_in + r.inter_site + r.stage_out
        assert r.images == r.galaxies + 8
        assert r.image_bytes > 0


class TestCampaignFailures:
    def test_clean_run_reports_success(self):
        env = build_demo_environment(clusters=[cluster("CAMP-OK", 6)], seed_virtual_data_reuse=False)
        report = run_campaign(env, analyze=False)
        assert report.succeeded
        assert report.failed_clusters == []
        assert report.totals.failed_nodes == 0 and report.totals.unrunnable_nodes == 0
        assert not report.records[0].failed

    def test_failed_cluster_surfaces_node_counts(self):
        env = build_demo_environment(
            clusters=[cluster("CAMP-F", 6)],
            seed_virtual_data_reuse=False,
            max_retries=1,
        )
        env.vds.simulation_options.forced_failures["job-dv-CAMP-F-0000"] = 99
        report = run_campaign(env, analyze=False)
        assert not report.succeeded
        assert report.failed_clusters == ["CAMP-F"]
        record = report.records[0]
        assert record.failed
        assert record.accounting.failed_nodes == 1
        assert record.accounting.unrunnable_nodes >= 1  # concat (at least) never ran
        assert record.error
        assert "CAMP-F" in report.failure_summary()

    def test_failure_does_not_abort_remaining_clusters(self):
        clusters = [cluster("CAMP-F1", 6, ra=40.0), cluster("CAMP-F2", 7, ra=80.0)]
        env = build_demo_environment(
            clusters=clusters, seed_virtual_data_reuse=False, max_retries=1
        )
        env.vds.simulation_options.forced_failures[
            "job-dv-concat-CAMP-F1-morphology.vot"
        ] = 99
        report = run_campaign(env, cluster_names=["CAMP-F1", "CAMP-F2"], analyze=False)
        # CAMP-F1's failure is recorded and the campaign moves on to CAMP-F2
        # rather than aborting the whole run.
        assert len(report.records) == 2
        assert report.records[0].cluster == "CAMP-F1"
        assert report.records[0].failed and report.records[0].accounting.failed_nodes == 1
        assert report.records[1].cluster == "CAMP-F2"
        # CAMP-F2 trips the forced-failure validation (its DAG has no such
        # node) — still recorded per cluster, not raised out of the driver.
        assert report.records[1].failed
        assert "unknown workflow nodes" in (report.records[1].error or "")

    def test_cleared_fault_lets_later_run_succeed(self):
        env = build_demo_environment(
            clusters=[cluster("CAMP-R", 7)], seed_virtual_data_reuse=False, max_retries=1
        )
        env.vds.simulation_options.forced_failures[
            "job-dv-concat-CAMP-R-morphology.vot"
        ] = 99
        report = run_campaign(env, analyze=False)
        assert not report.succeeded
        env.vds.simulation_options.forced_failures.clear()
        report2 = run_campaign(env, analyze=False)
        assert report2.succeeded
        assert report2.records[0].accounting.galaxies == 7

    def test_failed_record_marks_synthetic_fields(self):
        record_obj = record("X")
        assert not record_obj.failed
        failed = ClusterRunRecord(
            cluster="Y",
            accounting=accounting(0, 0, 0, failed_nodes=2, unrunnable_nodes=3),
            analysis=None,
            error="boom",
        )
        assert failed.failed
        report = CampaignReport(records=[record_obj, failed])
        assert report.failed_clusters == ["Y"]
        assert report.totals.failed_nodes == 2 and report.totals.unrunnable_nodes == 3
        assert "boom" in report.failure_summary()
