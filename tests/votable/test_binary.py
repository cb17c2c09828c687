"""Tests for the BINARY VOTable serialisation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.votable.binary import parse_votable_binary, write_votable_binary
from repro.votable.model import Field, VOTable
from repro.votable.writer import write_votable

names = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)
cell_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


@st.composite
def tables(draw):
    n_fields = draw(st.integers(1, 5))
    field_names = draw(st.lists(names, min_size=n_fields, max_size=n_fields, unique=True))
    datatypes = draw(
        st.lists(
            st.sampled_from(["char", "int", "double", "boolean", "long", "float", "short"]),
            min_size=n_fields,
            max_size=n_fields,
        )
    )
    fields = [Field(n, d) for n, d in zip(field_names, datatypes)]
    table = VOTable(fields, name=draw(names))
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for f in fields:
            if draw(st.booleans()) and f.datatype != "char":
                row.append(None)
            elif f.datatype == "char":
                row.append(draw(cell_text))
            elif f.datatype == "boolean":
                row.append(draw(st.booleans()))
            elif f.datatype in ("short",):
                row.append(draw(st.integers(-30000, 30000)))
            elif f.datatype == "int":
                row.append(draw(st.integers(-(2**31) + 1, 2**31 - 1)))
            elif f.datatype == "long":
                row.append(draw(st.integers(-(2**62), 2**62)))
            elif f.datatype == "float":
                row.append(draw(st.floats(-1e5, 1e5, width=32)))
            else:
                row.append(draw(st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)))
        table.append(row)
    return table


class TestBinaryRoundTrip:
    @given(tables())
    def test_property_roundtrip(self, table):
        assert parse_votable_binary(write_votable_binary(table)) == table

    def test_params_and_metadata(self):
        t = VOTable(
            [Field("ra", "double", unit="deg", ucd="pos.eq.ra")],
            name="gals",
            description="binary round trip",
            params={"REQUEST": "r-1"},
        )
        t.append([150.25])
        back = parse_votable_binary(write_votable_binary(t))
        assert back == t
        assert back.fields[0].unit == "deg"

    def test_null_handling(self):
        t = VOTable(
            [Field("x", "int"), Field("y", "double"), Field("ok", "boolean")]
        )
        t.append([None, None, None])
        t.append([7, 1.5, True])
        back = parse_votable_binary(write_votable_binary(t))
        assert back.row(0) == {"x": None, "y": None, "ok": None}
        assert back.row(1) == {"x": 7, "y": 1.5, "ok": True}

    def test_bytes_input(self):
        t = VOTable([Field("a", "int")])
        t.append([1])
        assert parse_votable_binary(write_votable_binary(t).encode()) == t

    def test_rejects_non_votable(self):
        with pytest.raises(ValueError):
            parse_votable_binary("<HTML/>")

    def test_rejects_tabledata_document(self):
        t = VOTable([Field("a", "int")])
        t.append([1])
        with pytest.raises(ValueError):
            parse_votable_binary(write_votable(t))  # no STREAM element


class TestBinaryEfficiency:
    def test_smaller_than_tabledata_for_numeric_bulk(self):
        t = VOTable(
            [Field("ra", "double"), Field("dec", "double"), Field("asym", "double")]
        )
        for i in range(500):
            t.append([150.0 + i * 1e-4, 2.0 - i * 1e-4, 0.001 * i])
        tabledata = write_votable(t)
        binary = write_votable_binary(t)
        assert len(binary) < len(tabledata) / 2
        assert parse_votable_binary(binary) == t
