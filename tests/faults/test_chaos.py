"""Tests for the chaos campaign harness and the recovery invariant.

These are the slowest tests in the suite (each campaign runs a baseline
*and* a chaos analysis end to end), so they stick to the smallest
demonstration cluster.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.chaos import ChaosReport, ClusterOutcome, ShardChaosReport, run_chaos_campaign
from repro.faults.plan import FaultPlan


def outcome(**overrides) -> ClusterOutcome:
    base = dict(
        cluster="A3526",
        baseline_sha256="a" * 64,
        chaos_sha256="a" * 64,
        state="completed",
        attempts=1,
        requeues=0,
    )
    base.update(overrides)
    return ClusterOutcome(**base)


class TestReportSemantics:
    def test_recovered_requires_identical_completion(self):
        good = ChaosReport("p", 1, True, [outcome()])
        assert good.recovered and good.passed and good.exit_code() == 0

        mismatched = ChaosReport("p", 1, True, [outcome(chaos_sha256="b" * 64)])
        assert not mismatched.recovered and mismatched.exit_code() == 1

        failed = ChaosReport(
            "p", 1, True, [outcome(state="failed", chaos_sha256=None, error="boom")]
        )
        assert not failed.recovered and failed.exit_code() == 1

    def test_graceful_needs_terminal_states_with_errors(self):
        hygienic = ChaosReport(
            "p", 1, False,
            [outcome(state="failed", chaos_sha256=None, error="all pools down")],
        )
        assert hygienic.graceful and hygienic.passed
        assert hygienic.exit_code() == 1  # degradation is never a silent success

        wedged = ChaosReport("p", 1, False, [outcome(state="running")])
        assert not wedged.graceful
        silent = ChaosReport(
            "p", 1, False, [outcome(state="failed", chaos_sha256=None, error="")]
        )
        assert not silent.graceful

    def test_as_dict_is_json_ready_and_sorted(self):
        report = ChaosReport(
            "p", 1, True, [outcome()], injected={"b/x": 1, "a/y": 2}
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert list(payload["injected_faults"]) == ["a/y", "b/x"]
        assert payload["total_injected"] == 3
        assert payload["clusters"][0]["identical"] is True

    @pytest.mark.parametrize(
        "report, extra",
        [(ChaosReport, {}), (ShardChaosReport, {"shards": 2, "killed_shard": "shard-1", "relocated_jobs": 3})],
        ids=["ChaosReport", "ShardChaosReport"],
    )
    def test_summary_mentions_the_invariant(self, report, extra):
        """What ``repro chaos`` prints without ``--json``, for one process and for a fleet."""
        held = report(profile="p", seed=1, recoverable=True, outcomes=[outcome()], **extra)
        assert "HELD" in held.summary()
        violated = report(profile="p", seed=1, recoverable=True, outcomes=[outcome(chaos_sha256="b" * 64)], **extra)
        assert "VIOLATED" in violated.summary()
        if report is ShardChaosReport:
            assert "2 shards" in held.summary()
            assert "killed shard 'shard-1' mid-flight; 3 job(s) relocated by journal replay" in held.summary()


@pytest.mark.slow
class TestCampaigns:
    def test_recoverable_profile_recovers_byte_identical(self):
        report = run_chaos_campaign(profile="recoverable", clusters=["A3526"])
        assert report.recovered, report.summary()
        assert report.exit_code() == 0
        # The chaos run actually hurt: faults were injected, the stale
        # replica was manufactured, and the uwisc outage tripped a breaker.
        assert report.outcomes[0].requeues >= 1
        assert sum(report.injected.values()) > 0
        assert report.stale_replicas_created >= 1
        assert report.breaker_states.get("uwisc") == "open"

    def test_degraded_archives_profile_degrades_gracefully(self):
        report = run_chaos_campaign(profile="degraded-archives", clusters=["A3526"])
        assert not report.recoverable
        assert report.graceful and report.passed
        assert report.exit_code() == 1
        # Output exists but is annotated (or the cluster failed loudly).
        out = report.outcomes[0]
        assert out.state in ("completed", "failed")
        if out.state == "completed":
            assert out.degraded and not out.identical

    def test_hand_crafted_empty_plan_is_trivially_recoverable(self):
        report = run_chaos_campaign(
            profile="custom", clusters=["A3526"], plan=FaultPlan()
        )
        assert report.recovered
        assert report.injected == {}
        assert report.outcomes[0].attempts == 1

    def test_unknown_profile_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            run_chaos_campaign(profile="nope", clusters=["A3526"])
