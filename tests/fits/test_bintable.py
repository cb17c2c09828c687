"""Tests for FITS binary tables and VOTable interchange."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fits.bintable import (
    BinTableColumn,
    BinTableHDU,
    bintable_to_votable,
    votable_to_bintable,
)
from repro.fits.header import BLOCK_SIZE
from repro.votable.model import Field, VOTable


def sample_table() -> BinTableHDU:
    table = BinTableHDU(
        [
            BinTableColumn("id", "16A"),
            BinTableColumn("ra", "D"),
            BinTableColumn("flux", "E"),
            BinTableColumn("count", "J"),
            BinTableColumn("big", "K"),
            BinTableColumn("ok", "L"),
        ]
    )
    table.append(["g1", 150.123456, 3.5, 42, 2**40, True])
    table.append(["g2", 151.0, None, -7, -(2**40), False])
    return table


class TestColumns:
    def test_tform_validation(self):
        with pytest.raises(ValueError):
            BinTableColumn("x", "Z")
        with pytest.raises(ValueError):
            BinTableColumn("x", "A")  # string without width
        with pytest.raises(ValueError):
            BinTableColumn("x", "3J")  # arrays unsupported
        with pytest.raises(ValueError):
            BinTableColumn("", "D")

    def test_width(self):
        assert BinTableColumn("s", "16A").width_bytes == 16
        assert BinTableColumn("d", "D").width_bytes == 8
        assert BinTableColumn("l", "L").width_bytes == 1


class TestBinTableHDU:
    def test_structure(self):
        table = sample_table()
        assert table.row_bytes == 16 + 8 + 4 + 4 + 8 + 1
        assert len(table) == 2

    def test_duplicate_columns(self):
        with pytest.raises(ValueError):
            BinTableHDU([BinTableColumn("a", "D"), BinTableColumn("a", "E")])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            BinTableHDU([])

    def test_row_arity(self):
        with pytest.raises(ValueError):
            sample_table().append(["just-one"])

    def test_block_aligned(self):
        assert len(sample_table().to_bytes()) % BLOCK_SIZE == 0

    def test_roundtrip(self):
        table = sample_table()
        back, consumed = BinTableHDU.from_bytes(table.to_bytes())
        assert consumed == len(table.to_bytes())
        assert [c.name for c in back.columns] == [c.name for c in table.columns]
        rows = back.rows()
        assert rows[0][0] == "g1"
        assert rows[0][1] == pytest.approx(150.123456)
        assert rows[0][3] == 42 and rows[0][4] == 2**40 and rows[0][5] is True
        assert rows[1][2] is None  # NaN -> null
        assert rows[1][5] is False

    def test_integer_nulls_rejected(self):
        table = BinTableHDU([BinTableColumn("n", "J")])
        table.append([None])
        with pytest.raises(ValueError):
            table.to_bytes()

    def test_user_header_kept(self):
        table = sample_table()
        table.header.set("EXTNAME", "CATALOG")
        back, _ = BinTableHDU.from_bytes(table.to_bytes())
        assert back.header["EXTNAME"] == "CATALOG"

    def test_rejects_non_bintable(self):
        from repro.fits.hdu import ImageHDU

        with pytest.raises(ValueError):
            BinTableHDU.from_bytes(ImageHDU(None).to_bytes())

    def test_truncated_data(self):
        payload = sample_table().to_bytes()
        with pytest.raises(ValueError):
            BinTableHDU.from_bytes(payload[: BLOCK_SIZE + 4])


names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


@st.composite
def votables(draw):
    n = draw(st.integers(1, 4))
    field_names = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    datatypes = draw(
        st.lists(st.sampled_from(["char", "int", "long", "float", "double", "boolean"]),
                 min_size=n, max_size=n)
    )
    fields = [Field(fn, dt) for fn, dt in zip(field_names, datatypes)]
    table = VOTable(fields, name="cat")
    for _ in range(draw(st.integers(0, 6))):
        row = []
        for f in fields:
            if f.datatype == "char":
                row.append(draw(st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)))
            elif f.datatype == "boolean":
                row.append(draw(st.booleans()))
            elif f.datatype == "int":
                row.append(draw(st.integers(-(2**31) + 1, 2**31 - 1)))
            elif f.datatype == "long":
                row.append(draw(st.integers(-(2**62), 2**62)))
            elif f.datatype == "float":
                row.append(draw(st.floats(-1e6, 1e6, width=32)))
            else:
                row.append(draw(st.floats(-1e9, 1e9, allow_nan=False)))
        table.append(row)
    return table


class TestVOTableInterchange:
    @given(votables())
    def test_roundtrip_through_bintable_bytes(self, votable):
        hdu = votable_to_bintable(votable)
        back_hdu, _ = BinTableHDU.from_bytes(hdu.to_bytes())
        back = bintable_to_votable(back_hdu)
        assert back.name == votable.name
        assert len(back) == len(votable)
        for original, restored in zip(votable, back):
            for field in votable.fields:
                a, b = original[field.name], restored[field.name]
                if field.datatype == "short":
                    continue  # widened to int
                if isinstance(a, float):
                    assert b == pytest.approx(a, rel=1e-6)
                else:
                    assert a == b

    def test_short_widened_to_int(self):
        t = VOTable([Field("x", "short")])
        t.append([123])
        back = bintable_to_votable(votable_to_bintable(t))
        assert back.fields[0].datatype == "int"
        assert back.row(0)["x"] == 123

    def test_long_strings_widen_column(self):
        t = VOTable([Field("s", "char")])
        t.append(["x" * 50])
        hdu = votable_to_bintable(t, string_width=8)
        assert hdu.columns[0].width_bytes == 50
        assert bintable_to_votable(hdu).row(0)["s"] == "x" * 50
