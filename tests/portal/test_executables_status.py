"""Tests for the transformation bodies and the status board."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ExecutionError
from repro.fits.io import write_fits_bytes
from repro.morphology.pipeline import MorphologyResult
from repro.portal.executables import (
    concat_executable,
    galmorph_executable,
    result_to_text,
    text_to_result,
)
from repro.portal.status import StatusBoard
from repro.sky.imaging import CutoutFactory
from repro.votable.parser import parse_votable
from repro.workflow.abstract import AbstractJob


class TestResultTextFormat:
    def test_roundtrip_valid(self):
        result = MorphologyResult(
            "g1", True, surface_brightness=21.5, concentration=3.3,
            asymmetry=0.12, petrosian_radius_arcsec=4.5, petrosian_radius_kpc=2.2,
        )
        assert text_to_result(result_to_text(result)) == result

    def test_roundtrip_invalid_with_nans(self):
        result = MorphologyResult("g2", False, error="no significant central source")
        back = text_to_result(result_to_text(result))
        assert back.galaxy_id == "g2"
        assert not back.valid
        assert math.isnan(back.asymmetry)
        assert back.error == "no significant central source"

    def test_malformed_rejected(self):
        with pytest.raises(ExecutionError):
            text_to_result(b"id g1\n")


class TestGalmorphExecutable:
    def _job(self, image_lfn="g.fit", out_lfn="g.txt", **extra):
        params = {
            "redshift": "0.05",
            "pixScale": str(0.4 / 3600.0),
            "zeroPoint": "0",
            "Ho": "100",
            "om": "0.3",
            "flat": "1",
        }
        params.update({k: str(v) for k, v in extra.items()})
        return AbstractJob("dv-g", "galMorph", (image_lfn,), (out_lfn,), params)

    def test_computes_from_fits(self, small_cluster):
        factory = CutoutFactory(small_cluster)
        member = min(factory.members(), key=lambda m: m.magnitude)
        payload = write_fits_bytes(factory.render_cutout(member.galaxy_id))
        out = galmorph_executable(self._job(), {"g.fit": payload})
        result = text_to_result(out["g.txt"])
        assert result.valid
        assert result.galaxy_id == member.galaxy_id

    def test_requires_single_input(self):
        with pytest.raises(ExecutionError):
            galmorph_executable(self._job(), {})

    def test_bad_image_yields_invalid_not_crash(self, small_cluster):
        import numpy as np

        from repro.fits.hdu import ImageHDU

        noise = ImageHDU(np.random.default_rng(0).normal(5, 1, (64, 64)).astype("f4"))
        out = galmorph_executable(self._job(), {"g.fit": write_fits_bytes(noise)})
        assert not text_to_result(out["g.txt"]).valid


class TestConcatExecutable:
    def test_builds_votable(self):
        results = [
            MorphologyResult("g1", True, 21.0, 3.1, 0.05, 4.0, 2.0),
            MorphologyResult("g2", False, error="bad image"),
        ]
        job = AbstractJob(
            "dv-concat", "concatVOTable",
            ("g1.txt", "g2.txt"), ("out.vot",), {"cluster": "TEST01"},
        )
        inputs = {"g1.txt": result_to_text(results[0]), "g2.txt": result_to_text(results[1])}
        out = concat_executable(job, inputs)
        table = parse_votable(out["out.vot"].decode())
        assert len(table) == 2
        rows = list(table)
        assert rows[0]["valid"] is True and rows[0]["asymmetry"] == pytest.approx(0.05)
        assert rows[1]["valid"] is False and rows[1]["asymmetry"] is None
        assert rows[1]["error"] == "bad image"
        assert table.name == "TEST01"

    def test_preserves_input_order(self):
        job = AbstractJob(
            "c", "concatVOTable", ("b.txt", "a.txt"), ("o.vot",), {"cluster": "X"}
        )
        inputs = {
            "a.txt": result_to_text(MorphologyResult("a", False, error="x")),
            "b.txt": result_to_text(MorphologyResult("b", False, error="x")),
        }
        table = parse_votable(concat_executable(job, inputs)["o.vot"].decode())
        assert [r["id"] for r in table] == ["b", "a"]


class TestStatusBoard:
    def test_create_post_poll(self):
        board = StatusBoard()
        url = board.create("req-1")
        board.post("req-1", "running", "working")
        message = board.poll(url)
        assert message.state == "running"
        board.post("req-1", "completed", result_url="http://x/out.vot")
        assert board.poll(url).result_url == "http://x/out.vot"
        assert board.page("req-1").latest.state == "completed"

    def test_poll_counts(self):
        board = StatusBoard()
        url = board.create("req-2")
        board.post("req-2", "running")
        for _ in range(3):
            board.poll(url)
        assert board.poll_count == 3

    def test_unknown_url(self):
        with pytest.raises(KeyError):
            StatusBoard().poll("http://x/status/ghost")

    def test_duplicate_request(self):
        board = StatusBoard()
        board.create("r")
        with pytest.raises(ValueError):
            board.create("r")

    def test_empty_page_reports_accepted(self):
        board = StatusBoard()
        url = board.create("r")
        assert board.poll(url).state == "accepted"
