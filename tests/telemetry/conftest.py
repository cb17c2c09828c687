"""Telemetry test fixtures: enabled runtime with guaranteed teardown."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture()
def enabled_telemetry():
    """Fresh tracer + registry for one test; always disabled afterwards."""
    telemetry.enable()
    try:
        yield telemetry
    finally:
        telemetry.disable()


class FakeClock:
    """A clock a test sets by hand: ``clock.t = 100.0``."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clocked_telemetry():
    """Enabled runtime whose registry's series are stamped by a
    :class:`FakeClock` (yielded), so window reads are deterministic."""
    telemetry.enable()
    clock = FakeClock()
    telemetry.get_registry().clock = clock
    try:
        yield clock
    finally:
        telemetry.disable()


@pytest.fixture(autouse=True)
def _always_disabled_after():
    """Safety net: no test leaves the global runtime enabled."""
    yield
    telemetry.disable()
