"""Tests for the MDS monitoring service and its site selector."""

from __future__ import annotations

import pytest

from repro.condor.mds import MdsSiteSelector, MonitoringService, ResourceRecord
from repro.core.errors import PlanningError


def record(site, total=10, busy=0, speed=1.0, ts=0.0) -> ResourceRecord:
    return ResourceRecord(site, total, busy, speed, ts)


class TestMonitoringService:
    def test_publish_query(self):
        mds = MonitoringService()
        mds.publish(record("isi", busy=3))
        assert mds.query("isi").free_slots == 7
        with pytest.raises(KeyError):
            mds.query("ghost")

    def test_newest_record_wins(self):
        mds = MonitoringService()
        mds.publish(record("isi", busy=3, ts=10.0))
        mds.publish(record("isi", busy=9, ts=5.0))  # stale: ignored
        assert mds.query("isi").busy_slots == 3
        mds.publish(record("isi", busy=9, ts=11.0))
        assert mds.query("isi").busy_slots == 9

    def test_query_count(self):
        mds = MonitoringService()
        mds.publish(record("isi"))
        mds.query("isi")
        mds.query("isi")
        assert mds.query_count == 2


class TestMdsSiteSelector:
    def test_prefers_free_capacity(self):
        mds = MonitoringService()
        mds.publish(record("busy", total=10, busy=9))
        mds.publish(record("idle", total=10, busy=0))
        selector = MdsSiteSelector(mds)
        assert selector.choose("j1", ["busy", "idle"]) == "idle"

    def test_speed_weighting(self):
        mds = MonitoringService()
        mds.publish(record("slow", total=4, speed=0.5))
        mds.publish(record("fast", total=4, speed=2.0))
        assert MdsSiteSelector(mds).choose("j", ["slow", "fast"]) == "fast"

    def test_pending_spreads_assignments(self):
        mds = MonitoringService()
        mds.publish(record("a", total=2))
        mds.publish(record("b", total=2))
        selector = MdsSiteSelector(mds)
        chosen = [selector.choose(f"j{i}", ["a", "b"]) for i in range(4)]
        assert chosen.count("a") == 2 and chosen.count("b") == 2

    def test_unmonitored_candidates_rejected(self):
        selector = MdsSiteSelector(MonitoringService())
        with pytest.raises(PlanningError):
            selector.choose("j", ["ghost"])
