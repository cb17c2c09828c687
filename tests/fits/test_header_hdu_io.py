"""Tests for FITS headers, HDUs and file I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.fits.hdu import ImageHDU, bitpix_for
from repro.fits.header import BLOCK_SIZE, Header
from repro.fits.io import read_fits_bytes, write_fits, write_fits_bytes


class TestHeader:
    def test_set_get_contains(self):
        hdr = Header()
        hdr.set("OBJECT", "M87", "target")
        assert hdr["OBJECT"] == "M87"
        assert hdr.get("MISSING") is None

    def test_get_default(self):
        assert Header().get("NOPE", 42) == 42

    def test_replace_preserves_position(self):
        hdr = Header()
        hdr.set("A", 1)
        hdr.set("B", 2)
        hdr.set("A", 9)
        assert [c.keyword for c in hdr] == ["A", "B"]
        assert hdr["A"] == 9

    def test_commentary(self):
        hdr = Header()
        hdr.add_history("first")
        hdr.set("A", 1)
        hdr.set("HISTORY", None, "second")  # commentary is appended, never replaced
        assert [(c.keyword, c.comment) for c in hdr] == [("HISTORY", "first"), ("A", ""), ("HISTORY", "second")]

    def test_to_bytes_block_aligned(self):
        hdr = Header()
        hdr.set("NAXIS", 0)
        payload = hdr.to_bytes()
        assert len(payload) % BLOCK_SIZE == 0

    def test_roundtrip(self):
        hdr = Header()
        hdr.set("OBJECT", "NGC 1275", "target name")
        hdr.set("EXPTIME", 300.5)
        hdr.add_history("processed")
        back, consumed = Header.from_bytes(hdr.to_bytes())
        assert list(back) == list(hdr)
        assert consumed == len(hdr.to_bytes())

    def test_missing_end_raises(self):
        with pytest.raises(ValueError):
            Header.from_bytes(b" " * BLOCK_SIZE)


class TestBitpix:
    @pytest.mark.parametrize(
        "dtype,code",
        [("uint8", 8), ("int16", 16), ("int32", 32), ("int64", 64), ("float32", -32), ("float64", -64)],
    )
    def test_supported(self, dtype, code):
        assert bitpix_for(np.dtype(dtype)) == code

    def test_unsupported(self):
        with pytest.raises(TypeError):
            bitpix_for(np.dtype("complex64"))


class TestImageHDU:
    def test_header_only(self):
        hdu, consumed = ImageHDU.from_bytes(ImageHDU(None).to_bytes())
        assert hdu.data is None
        assert consumed == BLOCK_SIZE

    def test_axis_order_fits_convention(self):
        data = np.zeros((3, 5), dtype=np.float32)  # NAXIS1=5 (fast), NAXIS2=3
        hdu = ImageHDU(data)
        raw = hdu.to_bytes().decode("ascii", errors="replace")
        assert "NAXIS1  =                    5" in raw
        assert "NAXIS2  =                    3" in raw

    def test_data_padded_to_block(self):
        data = np.ones((10, 10), dtype=np.float64)
        assert len(ImageHDU(data).to_bytes()) % BLOCK_SIZE == 0

    def test_truncated_data_raises(self):
        payload = ImageHDU(np.ones((8, 8), dtype=np.float64)).to_bytes()
        with pytest.raises(ValueError):
            ImageHDU.from_bytes(payload[: BLOCK_SIZE + 10])

    def test_non_fits_rejected(self):
        hdr = Header()
        hdr.set("SIMPLE", False)
        hdr.set("BITPIX", 8)
        hdr.set("NAXIS", 0)
        with pytest.raises(ValueError):
            ImageHDU.from_bytes(hdr.to_bytes())

    @given(
        npst.arrays(
            dtype=st.sampled_from([np.float32, np.float64]),
            shape=npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_float_data_roundtrip(self, data):
        back, _ = ImageHDU.from_bytes(ImageHDU(data).to_bytes())
        assert back.data is not None
        assert back.data.shape == data.shape
        np.testing.assert_array_equal(back.data, data)

    @given(
        npst.arrays(
            dtype=st.sampled_from([np.int16, np.int32, np.int64]),
            shape=npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
            elements=st.integers(-30000, 30000),
        )
    )
    def test_int_data_roundtrip(self, data):
        back, _ = ImageHDU.from_bytes(ImageHDU(data).to_bytes())
        assert back.data is not None
        np.testing.assert_array_equal(back.data, data)

    def test_user_keywords_survive(self):
        hdr = Header()
        hdr.set("REDSHIFT", 0.0279)
        hdu = ImageHDU(np.zeros((2, 2), dtype=np.float32), hdr)
        back, _ = ImageHDU.from_bytes(hdu.to_bytes())
        assert back.header["REDSHIFT"] == pytest.approx(0.0279)


class TestFileIO:
    def test_write_read_path(self, tmp_path):
        data = np.arange(36, dtype=np.float32).reshape(6, 6)
        path = tmp_path / "image.fits"
        n = write_fits(path, ImageHDU(data))
        assert path.stat().st_size == n
        back = read_fits_bytes(path.read_bytes())
        np.testing.assert_array_equal(back.data, data)

    def test_bytes_api_matches_file_api(self, tmp_path):
        hdu = ImageHDU(np.ones((3, 3), dtype=np.int32))
        payload = write_fits_bytes(hdu)
        path = tmp_path / "x.fits"
        write_fits(path, hdu)
        assert path.read_bytes() == payload
        np.testing.assert_array_equal(read_fits_bytes(payload).data, hdu.data)
