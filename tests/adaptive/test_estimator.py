"""Tests for the decayed reservoirs and the site latency estimator."""

from __future__ import annotations

import pytest

from repro.adaptive.estimator import DecayedReservoir, SiteLatencyEstimator


class TestDecayedReservoir:
    def test_empty_is_none(self):
        reservoir = DecayedReservoir()
        assert reservoir.mean() is None
        assert reservoir.quantile(0.95) is None
        assert len(reservoir) == 0

    def test_mean_and_quantile(self):
        reservoir = DecayedReservoir(decay=1.0)  # no decay: plain stats
        for value in (1.0, 2.0, 3.0, 4.0):
            reservoir.observe(value)
        assert reservoir.mean() == pytest.approx(2.5)
        # nearest-rank: never invents an unobserved value
        assert reservoir.quantile(0.95) == 4.0
        assert reservoir.quantile(0.5) == 2.0

    def test_decay_forgets_slow_spell(self):
        reservoir = DecayedReservoir(decay=0.5)
        for _ in range(5):
            reservoir.observe(100.0)  # the slow spell
        for _ in range(10):
            reservoir.observe(1.0)  # recovery
        # With decay 0.5 the old samples carry ~2^-10 weight: the mean
        # must sit near the recovered duration, not the historic one.
        assert reservoir.mean() < 2.0

    def test_window_bounds_memory(self):
        reservoir = DecayedReservoir(window=4)
        for value in range(10):
            reservoir.observe(float(value))
        assert len(reservoir) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedReservoir(window=0)
        with pytest.raises(ValueError):
            DecayedReservoir(decay=0.0)
        with pytest.raises(ValueError):
            DecayedReservoir().observe(-1.0)
        with pytest.raises(ValueError):
            DecayedReservoir().quantile(1.5)


class TestSiteLatencyEstimator:
    def warm(self) -> SiteLatencyEstimator:
        estimator = SiteLatencyEstimator()
        for _ in range(10):
            estimator.observe("isi", "galMorph", 10.0)
            estimator.observe("uwisc", "galMorph", 50.0)
        return estimator

    def test_predict_per_site(self):
        estimator = self.warm()
        assert estimator.predict("isi") == pytest.approx(10.0)
        assert estimator.predict("uwisc") == pytest.approx(50.0)
        assert estimator.predict("fnal") is None

    def test_samples_and_sites(self):
        estimator = self.warm()
        assert estimator.samples("isi") == 10
        assert estimator.samples("isi", "galMorph") == 10
        assert estimator.samples("isi", "other") == 0
        assert estimator.sites() == ("isi", "uwisc")

    def test_best_quantile_is_min_over_sites_not_pooled(self):
        """The straggler budget must anchor to the healthiest site: the
        slow site's own samples must never inflate what counts as
        'suspiciously long'."""
        estimator = self.warm()
        best = estimator.best_quantile("galMorph", 0.95)
        assert best == pytest.approx(10.0)
        assert estimator.quantile("uwisc", "galMorph", 0.95) == pytest.approx(50.0)

    def test_best_quantile_none_without_history(self):
        assert SiteLatencyEstimator().best_quantile("galMorph", 0.95) is None

    def test_snapshot_shape(self):
        snapshot = self.warm().snapshot()
        assert set(snapshot) == {"isi", "uwisc"}
        assert snapshot["isi"]["samples"] == 10
        assert snapshot["uwisc"]["mean_s"] == pytest.approx(50.0)
        assert snapshot["uwisc"]["p95_s"] >= snapshot["isi"]["p95_s"]
