"""Tests for protocol requests and the transport cost model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ServiceError
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.transport import CostMeter, ProtocolCost, TransportModel


class TestConeSearchRequest:
    def test_validation(self):
        with pytest.raises(ServiceError):
            ConeSearchRequest(ra=400.0, dec=0.0, sr=1.0)
        with pytest.raises(ServiceError):
            ConeSearchRequest(ra=0.0, dec=-91.0, sr=1.0)
        with pytest.raises(ServiceError):
            ConeSearchRequest(ra=0.0, dec=0.0, sr=-1.0)

    def test_url_roundtrip(self):
        req = ConeSearchRequest(ra=194.95, dec=27.98, sr=0.5)
        url = req.to_url("http://ned.synth/cone")
        assert url.startswith("http://ned.synth/cone?")
        assert ConeSearchRequest.from_url(url) == req

    def test_missing_param(self):
        with pytest.raises(ServiceError):
            ConeSearchRequest.from_url("http://x/cone?RA=1&DEC=2")

    @given(st.floats(0, 359.9), st.floats(-89.9, 89.9), st.floats(0, 10))
    def test_url_roundtrip_property(self, ra, dec, sr):
        req = ConeSearchRequest(ra, dec, sr)
        assert ConeSearchRequest.from_url(req.to_url("http://svc/c")) == req


class TestSIARequest:
    def test_pos_format(self):
        req = SIARequest(ra=10.0, dec=-5.0, size=0.25)
        url = req.to_url("http://dss.synth/sia")
        assert "POS=10.0%2C-5.0" in url
        assert SIARequest.from_url(url) == req

    def test_size_positive(self):
        with pytest.raises(ServiceError):
            SIARequest(ra=0.0, dec=0.0, size=0.0)

    def test_malformed_pos(self):
        with pytest.raises(ServiceError):
            SIARequest.from_url("http://x/sia?POS=10&SIZE=1")

    def test_format_default(self):
        req = SIARequest.from_url("http://x/sia?POS=1,2&SIZE=0.5")
        assert req.fmt == "image/fits"


class TestNanSearchSize:
    """``nan < 0`` is False: the checks must reject NaN explicitly."""

    def test_cone_radius(self):
        with pytest.raises(ServiceError):
            ConeSearchRequest(ra=1.0, dec=1.0, sr=float("nan"))
        with pytest.raises(ServiceError):
            ConeSearchRequest.from_url("http://x/cone?RA=1&DEC=1&SR=nan")

    def test_sia_size(self):
        with pytest.raises(ServiceError):
            SIARequest(ra=1.0, dec=1.0, size=float("nan"))
        with pytest.raises(ServiceError):
            SIARequest.from_url("http://x/sia?POS=1,1&SIZE=nan")


class TestProtocolCost:
    def test_latency_plus_bandwidth(self):
        cost = ProtocolCost(request_latency_s=0.5, bandwidth_bps=1000.0)
        assert cost.time(0) == pytest.approx(0.5)
        assert cost.time(2000) == pytest.approx(2.5)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            ProtocolCost(0.1, 100.0).time(-1)


class TestTransportModel:
    def test_sia_overhead_dominated_for_cutouts(self):
        model = TransportModel()
        t = model.sia_download.time(20160)
        # >50% of the time is the fixed per-request latency
        assert model.sia_download.request_latency_s / t > 0.5

    def test_gridftp_much_faster(self):
        model = TransportModel()
        assert model.gridftp.time(20160) < model.sia_download.time(20160) / 5

    def test_batched_beats_per_item(self):
        model = TransportModel()
        n, size = 100, 20160
        per_item = n * model.sia_query.time(size)
        batched = model.batched_query_time(n, n * size)
        assert batched < per_item / 5

    def test_batch_needs_items(self):
        with pytest.raises(ValueError):
            TransportModel().batched_query_time(0, 0)


class TestCostMeter:
    def test_accumulates(self):
        meter = CostMeter()
        meter.charge("sia", 1.0)
        meter.charge("sia", 2.0)
        meter.charge("gridftp", 0.5)
        assert meter.total("sia") == pytest.approx(3.0)
        assert meter.total() == pytest.approx(3.5)
        assert meter.count("sia") == 2
        assert meter.breakdown() == {"sia": 3.0, "gridftp": 0.5}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().charge("x", -1.0)

    def test_reset(self):
        meter = CostMeter()
        meter.charge("x", 1.0)
        meter.reset()
        assert meter.total() == 0.0
