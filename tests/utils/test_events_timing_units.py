"""Tests for the event log and unit formatting."""

from __future__ import annotations

import pytest

from repro.utils.events import EventLog
from repro.utils.units import GB, KB, MB, format_bytes


class TestEventLog:
    def test_emit_and_iterate(self):
        log = EventLog()
        log.emit(1.0, "pegasus", "plan", jobs=3)
        log.emit(2.0, "dagman", "done")
        assert [e.kind for e in log] == ["plan", "done"]

    def test_kinds_order_preserved(self):
        log = EventLog()
        for kind in ("a", "b", "c"):
            log.emit(0, "s", kind)
        assert log.kinds() == ["a", "b", "c"]

    def test_detail_captured(self):
        log = EventLog()
        event = log.emit(0.5, "rls", "lookup", lfn="b", replicas=2)
        assert event.detail == {"lfn": "b", "replicas": 2}


class TestUnits:
    def test_constants(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3

    @pytest.mark.parametrize(
        "n,expected",
        [
            (512, "512 B"),
            (2048, "2.0 KB"),
            (30 * MB, "30.0 MB"),
            (3 * GB, "3.0 GB"),
        ],
    )
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected
