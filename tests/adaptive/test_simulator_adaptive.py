"""Simulator-level adaptive execution: speculation beats a slow site,
autoscaling grows hot pools, and the disabled layer changes nothing."""

from __future__ import annotations

import pytest

from repro.adaptive import (
    AdaptiveController,
    AutoscaleConfig,
    SpeculationPolicy,
)
from repro.condor.pool import GridTopology
from repro.condor.simulator import (
    GridSimulator,
    SimulationOptions,
    node_class,
    payload_with_site,
)
from repro.faults.profiles import get_profile
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import ComputeNode, ConcreteWorkflow


def fan_workflow(n: int, sites: list[str]) -> ConcreteWorkflow:
    wf = ConcreteWorkflow()
    for i in range(n):
        wf.add(
            ComputeNode(
                f"gm{i}",
                AbstractJob(f"j{i}", "galMorph", (f"in{i}.fit",), (f"out{i}.xml",)),
                sites[i % len(sites)],
                "/bin/galmorph",
            )
        )
    return wf


def run(workflow, *, adaptive=None, faults=None, seed=7):
    simulator = GridSimulator(
        GridTopology.default_demo(),
        SimulationOptions(seed=seed),
        faults=faults,
        adaptive=adaptive,
    )
    return simulator.execute(workflow)


class TestPayloadHelpers:
    def test_node_class_is_transformation(self):
        node = ComputeNode(
            "n", AbstractJob("j", "galMorph", ("a",), ("b",)), "isi", "/bin/x"
        )
        assert node_class(node) == "galMorph"

    def test_payload_with_site_moves_node(self):
        node = ComputeNode(
            "n", AbstractJob("j", "galMorph", ("a",), ("b",)), "isi", "/bin/x"
        )
        moved = payload_with_site(node, "fnal")
        assert moved.site == "fnal"
        assert moved.node_id == node.node_id
        assert node.site == "isi"  # original untouched


class TestDisabledLayerDeterminism:
    def test_two_disabled_runs_identical(self):
        sites = sorted(GridTopology.default_demo().pools)
        a = run(fan_workflow(60, sites))
        b = run(fan_workflow(60, sites))
        assert a.makespan == b.makespan
        assert [(r.node_id, r.site, r.start, r.end) for r in a.runs] == [
            (r.node_id, r.site, r.start, r.end) for r in b.runs
        ]

    def test_disarmed_controller_matches_disabled(self):
        """A controller with every mechanism off must not perturb the
        event schedule: no spec events, no slot overlay, same RNG."""
        sites = sorted(GridTopology.default_demo().pools)
        disabled = run(fan_workflow(60, sites))
        disarmed = run(
            fan_workflow(60, sites),
            adaptive=AdaptiveController(speculation=None, autoscale=None),
        )
        assert disarmed.makespan == disabled.makespan
        assert disarmed.speculated == 0
        assert [(r.node_id, r.start, r.end) for r in disarmed.runs] == [
            (r.node_id, r.start, r.end) for r in disabled.runs
        ]


class TestSpeculation:
    def test_speculation_beats_slow_site(self):
        # 300 nodes: enough uwisc stragglers that the critical path is one
        # of them, so winning duplicates must shorten the makespan
        sites = sorted(GridTopology.default_demo().pools)
        faults = get_profile("slow-site", seed=7).injector()
        static = run(fan_workflow(300, sites), faults=faults)

        controller = AdaptiveController(speculation=SpeculationPolicy())
        adaptive = run(
            fan_workflow(300, sites),
            adaptive=controller,
            faults=get_profile("slow-site", seed=7).injector(),
        )
        assert static.succeeded and adaptive.succeeded
        assert adaptive.speculated > 0
        assert adaptive.spec_won > 0
        assert adaptive.makespan < static.makespan
        # every cancelled copy is accounted as waste
        counters = controller.tracker.snapshot()
        assert counters["wasted"] == adaptive.spec_wasted
        assert counters["launched"] == adaptive.speculated

    def test_winning_duplicate_reports_final_site(self):
        """A node whose duplicate won reports the duplicate's site."""
        faults = get_profile("slow-site", seed=7).injector()
        controller = AdaptiveController(speculation=SpeculationPolicy())
        report = run(
            fan_workflow(120, sorted(GridTopology.default_demo().pools)),
            adaptive=controller,
            faults=faults,
        )
        assert report.spec_won > 0
        moved = [r for r in report.compute_runs if r.site != "uwisc"]
        assert len(moved) > 80  # winners were attributed off the slow site

    def test_estimator_learns_from_runs(self):
        controller = AdaptiveController(speculation=SpeculationPolicy())
        run(
            fan_workflow(60, sorted(GridTopology.default_demo().pools)),
            adaptive=controller,
            faults=get_profile("slow-site", seed=7).injector(),
        )
        snapshot = controller.estimator.snapshot()
        assert snapshot["uwisc"]["mean_s"] > snapshot["isi"]["mean_s"]


class TestAutoscale:
    def test_queue_pressure_grows_slots(self):
        controller = AdaptiveController(
            speculation=None,
            autoscale=AutoscaleConfig(scale_up_at=4, cooldown_s=5.0),
        )
        report = run(
            fan_workflow(200, ["isi"]),  # everything on one 12-slot pool
            adaptive=controller,
        )
        assert report.succeeded
        assert controller.last_autoscaler is not None
        scaled = controller.last_autoscaler.snapshot()
        assert scaled["scale_ups"] > 0
        assert scaled["slots"]["isi"] > 12

    def test_autoscaled_run_is_faster(self):
        plain = run(fan_workflow(200, ["isi"]))
        controller = AdaptiveController(
            speculation=None,
            autoscale=AutoscaleConfig(scale_up_at=4, cooldown_s=5.0),
        )
        scaled = run(fan_workflow(200, ["isi"]), adaptive=controller)
        assert scaled.makespan < plain.makespan

    def test_snapshot_parked_on_controller(self):
        controller = AdaptiveController(autoscale=AutoscaleConfig())
        run(fan_workflow(20, ["isi"]), adaptive=controller)
        assert "autoscale" in controller.snapshot()


class TestSpeculationBudgetAnchoring:
    def test_budget_uses_best_site_quantile(self):
        """After a slow-site run the budget must reflect the healthy
        sites, not uwisc's self-normalised tail."""
        controller = AdaptiveController(speculation=SpeculationPolicy())
        run(
            fan_workflow(120, sorted(GridTopology.default_demo().pools)),
            adaptive=controller,
            faults=get_profile("slow-site", seed=7).injector(),
        )
        estimator = controller.estimator
        best = estimator.best_quantile("galMorph", 0.95)
        assert best is not None
        slow_p95 = estimator.quantile("uwisc", "galMorph", 0.95)
        if slow_p95 is not None:
            assert best < slow_p95
