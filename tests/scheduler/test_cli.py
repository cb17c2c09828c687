"""Tests for the ``queue`` verb over manager-written journals, and the
campaign exit code."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.catalog.coords import SkyPosition
from repro.cli import main
from repro.portal.demo import build_demo_environment
from repro.scheduler import JobJournal, WorkloadManager
from repro.sky.cluster import ClusterModel


def tiny(name: str, n: int = 6, ra: float = 25.0) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(ra, 3.0),
        redshift=0.04,
        n_galaxies=n,
        seed=13,
        context_image_count=5,
    )


def journaled(path, submits, clusters=None) -> None:
    """Write ``path`` the one way a job enters: a manager's ``submit`` (what
    ``POST /jobs`` calls).  With ``clusters`` the portal runner drains the
    queue on a demonstration environment of them; without, jobs stay queued."""
    journal = JobJournal(path)
    if clusters is None:
        manager = WorkloadManager(None, journal=journal)
    else:
        env = build_demo_environment(clusters=clusters, seed_virtual_data_reuse=False)
        manager = WorkloadManager.for_environment(env, journal=journal, max_workers=2)
        manager.start()
    for user, cluster, options, priority in submits:
        manager.submit(user, cluster, options, priority=priority)
    if clusters is not None:
        manager.drain(timeout=300)
    manager.close()


class TestQueueVerb:
    def test_queue_lists_a_managers_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        journaled(journal, [("alice", "A3526", None, 0), ("bob", "MS0451", {"bins": 5}, 3)])

        assert main(["queue", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "job-000000-" in out and "job-000001-" in out
        assert "alice" in out and "bob" in out
        (bob,) = [line.split() for line in out.splitlines() if " bob " in line]
        assert bob[4] == "3"  # the priority column
        assert "queued=2" in out

    def test_queue_empty(self, tmp_path, capsys):
        assert main(["queue", "--journal", str(tmp_path / "missing.jsonl")]) == 0
        assert "queue is empty" in capsys.readouterr().out

    def test_queue_renders_cache_hits_and_charged_usage(self, tmp_path, capsys):
        clusters = [tiny("CLI-A", ra=20.0), tiny("CLI-B", n=7, ra=70.0)]
        journal = str(tmp_path / "journal.jsonl")
        journaled(
            journal,
            [("alice", "CLI-A", None, 0), ("bob", "CLI-B", None, 0),
             ("carol", "CLI-A", None, 0)],  # carol's duplicate derivation: a cache hit
            clusters,
        )

        assert main(["queue", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "completed=3" in out
        assert out.count("completed") == 4  # three rows and the summary
        assert " yes " in out
        assert "charged usage" in out

    def test_queue_reads_a_journal_a_live_writer_holds(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        live = WorkloadManager(None, journal=JobJournal(journal))
        try:
            live.submit("alice", "A3526")
            assert main(["queue", "--journal", str(journal), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["queued"] == 1
        finally:
            live.close()

    @pytest.mark.parametrize("verb", ["submit", "serve"])
    def test_the_offline_spool_verbs_are_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--journal", "j.jsonl"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCampaignExitCode:
    def test_nonzero_on_failed_cluster(self, capsys, monkeypatch):
        def env_factory(*args, **kwargs):
            env = build_demo_environment(
                clusters=[tiny("CLI-F", n=6)],
                seed_virtual_data_reuse=False,
                max_retries=1,
            )
            env.vds.simulation_options.forced_failures["job-dv-CLI-F-0000"] = 99
            return env

        monkeypatch.setattr(cli, "_env", env_factory)
        assert main(["campaign"]) == 1
        captured = capsys.readouterr()
        assert "did not complete" in captured.err
        assert "failed node(s)" in captured.err

    def test_zero_on_clean_run(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "_env",
            lambda *a, **k: build_demo_environment(
                clusters=[tiny("CLI-OK", n=6)], seed_virtual_data_reuse=False
            ),
        )
        assert main(["campaign"]) == 0
        assert "did not complete" not in capsys.readouterr().err


class TestQueueJson:
    def test_json_payload_shape(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        journaled(journal, [("alice", "A3526", None, 0), ("bob", "MS0451", {"bins": 5}, 0)])

        assert main(["queue", "--json", "--journal", journal]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal"] == journal
        assert payload["counts"] == {"queued": 2}
        assert payload["queued"] == 2 and payload["running"] == 0
        assert payload["drained"] is False
        users = {job["user"] for job in payload["jobs"]}
        assert users == {"alice", "bob"}
        for job in payload["jobs"]:
            assert {"job_id", "state", "cluster", "cache_hit", "error"} <= set(job)

    def test_json_empty_journal_reports_drained(self, tmp_path, capsys):
        assert main(
            ["queue", "--json", "--journal", str(tmp_path / "missing.jsonl")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == []
        assert payload["counts"] == {}
        assert payload["drained"] is True

    def test_json_carries_journal_wall_times(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        journaled(journal, [("alice", "A3526", None, 0)])

        assert main(["queue", "--json", "--journal", journal]) == 0
        (job,) = json.loads(capsys.readouterr().out)["jobs"]
        # A queued job has its submit stamp but no start/finish/wait yet.
        assert isinstance(job["submitted_ts"], float)
        assert job["started_ts"] is None
        assert job["finished_ts"] is None
        assert job["wait_s"] is None

    def test_json_wait_seconds_after_drain(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        journaled(journal, [("alice", "CLI-W", None, 0)], [tiny("CLI-W", ra=40.0)])

        assert main(["queue", "--json", "--journal", journal]) == 0
        (job,) = json.loads(capsys.readouterr().out)["jobs"]
        assert job["state"] == "completed"
        assert job["submitted_ts"] <= job["started_ts"] <= job["finished_ts"]
        assert job["wait_s"] >= 0.0


class TestTelemetryReportTraceFilter:
    def _write_trace(self, path):
        import json

        from repro.telemetry.tracing import make_record

        spans = [
            make_record("serve.request", "t-one", "s1", None, 0.0, 1.0),
            make_record("scheduler.job", "t-one", "s2", "s1", 0.2, 0.9),
            make_record("serve.request", "t-two", "s3", None, 0.0, 0.5),
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def test_filters_to_one_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        self._write_trace(trace)
        assert main(["telemetry", "report", trace, "--trace-id", "t-one"]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "scheduler.job" in out

    def test_unknown_trace_id_fails(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        self._write_trace(trace)
        assert main(["telemetry", "report", trace, "--trace-id", "nope"]) == 1
        assert "no spans with trace id" in capsys.readouterr().err
