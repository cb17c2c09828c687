"""Tests for the VOTable in-memory model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.votable.model import Field, VOTable


def galaxy_table() -> VOTable:
    t = VOTable(
        [
            Field("id", "char", ucd="meta.id"),
            Field("ra", "double", unit="deg"),
            Field("mag", "float"),
            Field("count", "int"),
            Field("ok", "boolean"),
        ],
        name="gals",
    )
    t.append(["g1", 150.0, 17.5, 3, True])
    t.append(["g2", 151.0, 18.5, 4, False])
    return t


class TestField:
    def test_unknown_datatype(self):
        with pytest.raises(ValueError):
            Field("x", "complex")

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Field("", "int")

    def test_char_defaults_variable_arraysize(self):
        assert Field("s", "char").arraysize == "*"

    def test_cast(self):
        assert Field("x", "int").cast("7") == 7
        assert Field("x", "double").cast("1.5") == 1.5
        assert Field("x", "char").cast(3) == "3"
        assert Field("x", "int").cast(None) is None


class TestVOTable:
    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            VOTable([Field("a", "int"), Field("a", "int")])

    def test_append_positional_and_dict(self):
        t = galaxy_table()
        t.append({"id": "g3", "ra": 152.0})
        assert len(t) == 3
        assert t.row(2)["mag"] is None

    def test_append_wrong_arity(self):
        with pytest.raises(ValueError):
            galaxy_table().append(["only-one"])

    def test_append_unknown_dict_key(self):
        with pytest.raises(KeyError):
            galaxy_table().append({"nope": 1})

    def test_iteration_yields_dicts(self):
        rows = list(galaxy_table())
        assert rows[0]["id"] == "g1"
        assert rows[1]["ok"] is False

    def test_column_extraction(self):
        t = galaxy_table()
        np.testing.assert_allclose(t["ra"], [150.0, 151.0])
        assert t.column("count").dtype == np.int32

    def test_float_column_nulls_become_nan(self):
        t = galaxy_table()
        t.append({"id": "g3", "ra": 1.0})
        col = t.column("mag")
        assert np.isnan(col[-1])

    def test_int_column_nulls_raise(self):
        t = galaxy_table()
        t.append({"id": "g3", "ra": 1.0})
        with pytest.raises(ValueError):
            t.column("count")

    def test_values_cast_on_append(self):
        t = galaxy_table()
        t.append(["g3", "152.5", "19.0", "5", True])
        assert t.row(2)["ra"] == 152.5
        assert t.row(2)["count"] == 5

    def test_equality(self):
        assert galaxy_table() == galaxy_table()
        other = galaxy_table()
        other.append({"id": "g3"})
        assert galaxy_table() != other
