"""Tests for the VOTable operations (the general-purpose table services)."""

from __future__ import annotations

import pytest

from repro.votable.model import Field, VOTable
from repro.votable.ops import add_column, inner_join


def left_table() -> VOTable:
    t = VOTable([Field("id", "char"), Field("ra", "double")], name="left")
    for row in [["g1", 150.0], ["g2", 151.0], ["g3", 152.0]]:
        t.append(row)
    return t


def right_table() -> VOTable:
    t = VOTable([Field("id", "char"), Field("asym", "double"), Field("ra", "double")])
    for row in [["g1", 0.05, 150.0], ["g3", 0.31, 152.0]]:
        t.append(row)
    return t


class TestJoin:
    def test_inner_join_matches_only(self):
        joined = inner_join(left_table(), right_table(), on="id")
        assert [r["id"] for r in joined] == ["g1", "g3"]
        assert joined.row(1)["asym"] == 0.31

    def test_collision_suffix(self):
        joined = inner_join(left_table(), right_table(), on="id")
        assert "ra_2" in joined.field_names()

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            inner_join(left_table(), right_table(), on="nope")

    def test_duplicate_keys_cross_product(self):
        left = VOTable([Field("k", "int"), Field("a", "char")])
        for row in [[1, "x"], [1, "y"]]:
            left.append(row)
        right = VOTable([Field("k", "int"), Field("b", "char")])
        for row in [[1, "p"], [1, "q"]]:
            right.append(row)
        joined = inner_join(left, right, on="k")
        assert len(joined) == 4

    def test_join_preserves_left_name_and_params(self):
        left = left_table()
        left.params["SRC"] = "portal"
        joined = inner_join(left, right_table(), on="id")
        assert joined.name == "left"
        assert joined.params["SRC"] == "portal"


class TestAddColumn:
    def test_append_values(self):
        out = add_column(left_table(), Field("flag", "boolean"), [True, False, True])
        assert out.row(2)["flag"] is True
        assert len(out.fields) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            add_column(left_table(), Field("flag", "boolean"), [True])

    def test_original_untouched(self):
        t = left_table()
        add_column(t, Field("x", "int"), [1, 2, 3])
        assert "x" not in t.field_names()
