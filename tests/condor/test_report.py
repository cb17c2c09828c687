"""Tests for execution-report aggregation."""

from __future__ import annotations

from repro.condor.report import ExecutionReport, NodeRun


def run(node_id, kind="compute", site="isi", success=True, start=0.0, end=1.0):
    return NodeRun(
        node_id=node_id, kind=kind, site=site, start=start, end=end, attempts=1, success=success
    )


class TestExecutionReport:
    def test_typed_views(self):
        report = ExecutionReport(
            runs=[run("j1"), run("x1", kind="transfer"), run("r1", kind="registration")]
        )
        assert [r.node_id for r in report.compute_runs] == ["j1"]
        assert [r.node_id for r in report.transfer_runs] == ["x1"]

    def test_jobs_per_site_counts_successes_only(self):
        report = ExecutionReport(
            runs=[run("a", site="isi"), run("b", site="isi"), run("c", site="fnal", success=False)]
        )
        assert report.jobs_per_site() == {"isi": 2}

    def test_summary_states_outcome(self):
        ok = ExecutionReport(succeeded=True, makespan=12.0)
        assert ok.summary().startswith("OK")
        bad = ExecutionReport(succeeded=False, failed_nodes=("j1", "j2"))
        assert "FAILED(2)" in bad.summary()
