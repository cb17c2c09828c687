"""Tests for cone search, SIA archives, the cutout service and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.fits.io import read_fits_bytes
from repro.services.conesearch import SyntheticPhotometryCatalog, SyntheticRedshiftCatalog
from repro.services.cutout import CutoutSIAService
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.registry import DataCenter, default_registry
from repro.services.sia import OpticalImageArchive, XrayImageArchive
from repro.services.transport import CostMeter
from repro.sky.imaging import CutoutFactory


@pytest.fixture()
def cone_request(small_cluster):
    return ConeSearchRequest(
        ra=small_cluster.center.ra,
        dec=small_cluster.center.dec,
        sr=1.1 * small_cluster.tidal_radius_deg,
    )


@pytest.fixture()
def field_request(small_cluster):
    return SIARequest(
        ra=small_cluster.center.ra,
        dec=small_cluster.center.dec,
        size=2.2 * small_cluster.tidal_radius_deg,
    )


class TestConeSearchServices:
    def test_photometry_returns_all_members(self, small_cluster, cone_request):
        table = SyntheticPhotometryCatalog([small_cluster]).search(cone_request)
        assert len(table) == small_cluster.n_galaxies
        assert set(table.field_names()) >= {"id", "ra", "dec", "mag_r", "color_gr"}

    def test_redshift_schema_differs(self, small_cluster, cone_request):
        table = SyntheticRedshiftCatalog([small_cluster]).search(cone_request)
        assert "redshift" in table.field_names()
        assert "mag_r" not in table.field_names()

    def test_tiny_cone_selects_subset(self, small_cluster):
        service = SyntheticPhotometryCatalog([small_cluster])
        tiny = service.search(
            ConeSearchRequest(small_cluster.center.ra, small_cluster.center.dec, 0.02)
        )
        assert 0 < len(tiny) < small_cluster.n_galaxies

    def test_meter_charged(self, small_cluster, cone_request):
        meter = CostMeter()
        SyntheticPhotometryCatalog([small_cluster], meter=meter).search(cone_request)
        assert meter.count("cone-query") == 1
        assert meter.total("cone-query") > 0

    def test_red_sequence(self, small_cluster, cone_request):
        """Early types should be redder on average (the synthesis encodes it)."""
        table = SyntheticPhotometryCatalog([small_cluster]).search(cone_request)
        members = {m.galaxy_id: m for m in small_cluster.generate_members()}
        red = [r["color_gr"] for r in table if members[r["id"]].morph.value in ("E", "S0")]
        blue = [r["color_gr"] for r in table if members[r["id"]].morph.value not in ("E", "S0")]
        assert np.mean(red) > np.mean(blue)


class TestSIAArchives:
    def test_tile_count_matches_configuration(self, small_cluster, field_request):
        archive = OpticalImageArchive([small_cluster], tiles_per_cluster=9)
        table = archive.query(field_request)
        assert len(table) == 9

    def test_per_cluster_tile_counts(self, small_cluster, tiny_cluster):
        archive = OpticalImageArchive(
            [small_cluster, tiny_cluster],
            tiles_per_cluster={small_cluster.name: 5, tiny_cluster.name: 3},
        )
        req = SIARequest(
            ra=small_cluster.center.ra,
            dec=small_cluster.center.dec,
            size=2.2 * small_cluster.tidal_radius_deg,
        )
        assert len(archive.query(req)) == 5

    def test_xray_survey_name_configurable(self, small_cluster):
        archive = XrayImageArchive([small_cluster], survey="SYNTH-CHANDRA", tiles_per_cluster=2)
        assert archive.base_url.startswith("http://synth-chandra")


class TestCutoutService:
    def test_query_returns_cutout_records(self, small_cluster):
        service = CutoutSIAService([small_cluster])
        member = small_cluster.generate_members()[0]
        table = service.query(SIARequest(ra=member.ra, dec=member.dec, size=0.005))
        ids = [r["title"] for r in table]
        assert member.galaxy_id in ids

    def test_fetch_renders_galaxy(self, small_cluster):
        service = CutoutSIAService([small_cluster])
        member = small_cluster.generate_members()[0]
        payload = service.fetch(service.url_for(small_cluster.name, member.galaxy_id))
        hdu = read_fits_bytes(payload)
        assert hdu.header["OBJECT"] == member.galaxy_id
        assert len(payload) == service.estimated_size()

    def test_fetch_cached_is_byte_identical(self, small_cluster):
        service = CutoutSIAService([small_cluster])
        url = service.url_for(small_cluster.name, f"{small_cluster.name}-0001")
        assert service.fetch(url) == service.fetch(url)

    def test_unknown_galaxy(self, small_cluster):
        service = CutoutSIAService([small_cluster])
        with pytest.raises(ServiceError):
            service.fetch(service.url_for(small_cluster.name, "nope"))

    def test_unknown_cluster(self, small_cluster):
        service = CutoutSIAService([small_cluster])
        with pytest.raises(ServiceError):
            service.fetch(service.url_for("NOPE", "x"))

    def test_meter_charges_per_download(self, small_cluster):
        meter = CostMeter()
        service = CutoutSIAService([small_cluster], meter=meter)
        for i in range(3):
            service.fetch(service.url_for(small_cluster.name, f"{small_cluster.name}-000{i}"))
        assert meter.count("sia-download") == 3

    def test_fetch_during_batch_is_charged(self, small_cluster, monkeypatch):
        """A batch on a shared service must not switch off another caller's
        meter: a fetch that lands mid-batch is still charged."""
        meter = CostMeter()
        service = CutoutSIAService([small_cluster], meter=meter)
        batch = [
            service.url_for(small_cluster.name, f"{small_cluster.name}-000{i}") for i in range(2)
        ]
        other = service.url_for(small_cluster.name, f"{small_cluster.name}-0005")
        render = CutoutFactory.render_cutout
        renders = 0

        def render_with_interleaved_fetch(factory, galaxy_id):
            nonlocal renders
            renders += 1
            if renders == 1:  # the batch's first item (the nested fetch is the second)
                service.fetch(other)
            return render(factory, galaxy_id)

        monkeypatch.setattr(CutoutFactory, "render_cutout", render_with_interleaved_fetch)
        service.fetch_batch(batch)
        assert renders == 3
        assert meter.count("sia-download") == 1
        assert meter.count("sia-batch-download") == 1


class TestRegistry:
    def test_table1_contents(self):
        registry = default_registry()
        assert len(registry.all()) == 5
        rows = registry.table_rows()
        assert ("Chandra X-ray Center", "Chandra Data Archive", "SIA") in rows
        (mast,) = [c for c in registry.all() if c.collection == "Digitized Sky Survey (DSS)"]
        assert set(mast.interfaces) == {"SIA", "Cone Search"}

    def test_capability_discovery(self):
        registry = default_registry()
        sia_centers = [c for c in registry.all() if "SIA" in c.interfaces]
        cone_centers = [c for c in registry.all() if "Cone Search" in c.interfaces]
        assert len(sia_centers) == 4
        assert len(cone_centers) == 3

    def test_invalid_interface_rejected(self):
        with pytest.raises(ValueError):
            DataCenter("X", "Y", ("FTP",))
