"""Tests for the NVO resource registry and service failover."""

from __future__ import annotations

import pytest

from repro.core.errors import ServiceError
from repro.services.conesearch import SyntheticPhotometryCatalog
from repro.services.nvoregistry import (
    FailoverConeSearch,
    FailoverSIA,
    ResourceRecord,
    ResourceRegistry,
    SkyCoverage,
)
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.sia import OpticalImageArchive


def rec(identifier, capability="cone-search", service=None, waveband="optical", coverage=None):
    return ResourceRecord(
        identifier=f"ivo://test/{identifier}",
        title=identifier,
        capability=capability,
        service=service,
        waveband=waveband,
        coverage=coverage or SkyCoverage(),
    )


class TestSkyCoverage:
    def test_all_sky(self):
        assert SkyCoverage().contains(123.0, -45.0)

    def test_cone(self):
        cov = SkyCoverage(ra=10.0, dec=0.0, radius_deg=5.0)
        assert cov.contains(12.0, 0.0)
        assert not cov.contains(20.0, 0.0)


class TestResourceRegistry:
    def test_register_discover(self):
        registry = ResourceRegistry()
        registry.register(rec("ned"))
        registry.register(rec("dss", capability="sia"))
        registry.register(rec("rosat", capability="sia", waveband="x-ray"))
        assert len(registry) == 3
        assert len(registry.discover(capability="sia")) == 2
        assert len(registry.discover(capability="sia", waveband="x-ray")) == 1
        assert registry.discover(capability="compute") == []

    def test_positional_discovery(self):
        registry = ResourceRegistry()
        registry.register(
            rec("north", coverage=SkyCoverage(ra=0.0, dec=60.0, radius_deg=30.0))
        )
        registry.register(rec("allsky"))
        found = registry.discover(capability="cone-search", ra=0.0, dec=-60.0)
        assert [r.title for r in found] == ["allsky"]

    def test_identifier_validation(self):
        with pytest.raises(ServiceError):
            ResourceRecord("http://x", "t", "sia", None)
        with pytest.raises(ServiceError):
            ResourceRecord("ivo://x", "t", "teleport", None)

    def test_duplicate_and_unregister(self):
        registry = ResourceRegistry()
        registry.register(rec("a"))
        with pytest.raises(ServiceError):
            registry.register(rec("a"))

    def test_lookup(self):
        registry = ResourceRegistry()
        registry.register(rec("a"))
        assert registry.resource("ivo://test/a").title == "a"
        with pytest.raises(ServiceError):
            registry.resource("ivo://test/none")


class _BrokenService:
    def __init__(self) -> None:
        self.calls = 0

    def search(self, request):
        self.calls += 1
        raise ServiceError("service down")

    def query(self, request):
        self.calls += 1
        raise ServiceError("service down")


class TestFailover:
    def test_cone_failover(self, small_cluster):
        working = SyntheticPhotometryCatalog([small_cluster])
        broken = _BrokenService()
        facade = FailoverConeSearch(
            [rec("broken", service=broken), rec("working", service=working)]
        )
        request = ConeSearchRequest(
            small_cluster.center.ra, small_cluster.center.dec, small_cluster.tidal_radius_deg
        )
        table = facade.search(request)
        assert len(table) > 0
        assert facade.failures == {"ivo://test/broken": 1}
        # the working replica is promoted: the broken one is not retried
        facade.search(request)
        assert broken.calls == 1
        assert facade.active_identifier == "ivo://test/working"

    def test_sia_failover_query_and_fetch(self, small_cluster):
        working = OpticalImageArchive([small_cluster], tiles_per_cluster=3)
        facade = FailoverSIA(
            [rec("broken", capability="sia", service=_BrokenService()),
             rec("dss", capability="sia", service=working)]
        )
        request = SIARequest(
            small_cluster.center.ra, small_cluster.center.dec, 2.2 * small_cluster.tidal_radius_deg
        )
        table = facade.query(request)
        assert len(table) == 3
        assert facade.failures == {"ivo://test/broken": 1}

    def test_all_fail(self):
        facade = FailoverConeSearch([rec("a", service=_BrokenService())])
        with pytest.raises(ServiceError) as err:
            facade.search(ConeSearchRequest(0.0, 0.0, 1.0))
        assert "all 1 registered services failed" in str(err.value)

    def test_requires_resources(self):
        with pytest.raises(ServiceError):
            FailoverConeSearch([])
