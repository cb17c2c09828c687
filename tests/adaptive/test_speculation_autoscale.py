"""Tests for the speculation ledger (CostMeter waste accounting) and the
per-site slot autoscaler."""

from __future__ import annotations

import pytest

from repro.adaptive.autoscale import AutoscaleConfig, SiteAutoscaler
from repro.adaptive.controller import AdaptiveController
from repro.adaptive.speculation import (
    SPECULATIVE_CATEGORY,
    SpeculationPolicy,
    SpeculationTracker,
)
from repro.services.transport import CostMeter


class TestSpeculationPolicy:
    def test_defaults_valid(self):
        policy = SpeculationPolicy()
        assert policy.p95_multiplier == 1.5
        assert policy.quantile == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p95_multiplier": 0.5},
            {"min_samples": 0},
            {"max_active": 0},
            {"quantile": 0.0},
            {"min_budget_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpeculationPolicy(**kwargs)


class TestSpeculationTracker:
    def test_cancelled_duplicate_charges_elapsed_only(self):
        """The satellite contract: a duplicate killed after 2.5s charges
        2.5 ``speculative`` seconds — never the transport timeout."""
        meter = CostMeter()
        tracker = SpeculationTracker(meter)
        tracker.record_launch("uwisc", "gm-1")
        tracker.record_waste("uwisc", "gm-1", 2.5)
        assert meter.total(SPECULATIVE_CATEGORY) == pytest.approx(2.5)
        assert meter.count(SPECULATIVE_CATEGORY) == 1
        assert meter.total() == pytest.approx(2.5)  # nothing else charged

    def test_negative_elapsed_clamped(self):
        meter = CostMeter()
        tracker = SpeculationTracker(meter)
        tracker.record_waste("isi", "gm-2", -0.1)
        assert meter.total(SPECULATIVE_CATEGORY) == 0.0
        assert tracker.snapshot()["wasted"] == 1

    def test_snapshot_counters(self):
        tracker = SpeculationTracker()
        tracker.record_launch("isi", "a")
        tracker.record_launch("isi", "b")
        tracker.record_win("isi", "a")
        tracker.record_waste("uwisc", "a", 1.25)
        assert tracker.snapshot() == {
            "launched": 2,
            "won": 1,
            "wasted": 1,
            "wasted_seconds": 1.25,
        }

    def test_meterless_tracker_counts(self):
        tracker = SpeculationTracker(None)
        tracker.record_waste("isi", "x", 3.0)
        assert tracker.snapshot()["wasted_seconds"] == pytest.approx(3.0)


class TestSiteAutoscaler:
    def scaler(self, **kwargs) -> SiteAutoscaler:
        config = AutoscaleConfig(
            scale_up_at=4, step_up=2, step_down=1, max_factor=2.0,
            cooldown_s=10.0, **kwargs,
        )
        return SiteAutoscaler({"isi": 4}, config)

    def test_blocked_demand_scales_up(self):
        scaler = self.scaler()
        assert scaler.evaluate("isi", blocked=6, busy=4, now=0.0) == 6
        assert scaler.scale_ups == 1

    def test_cooldown_blocks_consecutive_changes(self):
        scaler = self.scaler()
        scaler.evaluate("isi", blocked=6, busy=4, now=0.0)
        assert scaler.evaluate("isi", blocked=6, busy=4, now=5.0) == 6
        assert scaler.evaluate("isi", blocked=6, busy=4, now=10.0) == 8
        assert scaler.scale_ups == 2

    def test_ceiling_is_max_factor_times_provisioned(self):
        scaler = self.scaler()
        now = 0.0
        for _ in range(10):
            scaler.evaluate("isi", blocked=10, busy=8, now=now)
            now += 10.0
        assert scaler.slots("isi") == 8  # 2.0 x 4 provisioned

    def test_idle_scales_back_to_provisioned_floor(self):
        scaler = self.scaler()
        scaler.evaluate("isi", blocked=6, busy=4, now=0.0)
        now = 10.0
        while scaler.slots("isi") > 4:
            scaler.evaluate("isi", blocked=0, busy=0, now=now)
            now += 10.0
        assert scaler.slots("isi") == 4
        assert scaler.scale_downs == 2
        # never shrinks below the provisioned topology
        scaler.evaluate("isi", blocked=0, busy=0, now=now)
        assert scaler.slots("isi") == 4

    def test_unknown_site_is_zero(self):
        assert self.scaler().evaluate("nope", blocked=9, busy=9, now=0.0) == 0

    def test_snapshot(self):
        scaler = self.scaler()
        scaler.evaluate("isi", blocked=6, busy=4, now=0.0)
        assert scaler.snapshot() == {
            "slots": {"isi": 6},
            "scale_ups": 1,
            "scale_downs": 0,
        }


class TestAdaptiveController:
    def test_snapshot_reflects_armed_layers(self):
        controller = AdaptiveController(
            speculation=SpeculationPolicy(), autoscale=AutoscaleConfig()
        )
        snapshot = controller.snapshot()
        assert snapshot["speculation_enabled"] is True
        assert snapshot["autoscale_enabled"] is True
        assert snapshot["predictive"] is True
        assert snapshot["speculation"]["launched"] == 0
        assert "autoscale" not in snapshot  # no simulator run parked one

    def test_snapshot_includes_parked_autoscaler(self):
        controller = AdaptiveController(autoscale=AutoscaleConfig())
        controller.last_autoscaler = SiteAutoscaler({"isi": 4}, controller.autoscale)
        assert controller.snapshot()["autoscale"]["slots"] == {"isi": 4}

    def test_waste_lands_in_environment_meter(self):
        meter = CostMeter()
        controller = AdaptiveController(speculation=SpeculationPolicy(), meter=meter)
        controller.tracker.record_waste("uwisc", "gm-9", 4.0)
        assert meter.total(SPECULATIVE_CATEGORY) == pytest.approx(4.0)
