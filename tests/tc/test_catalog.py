"""Tests for the Transformation Catalog."""

from __future__ import annotations

import pytest

from repro.tc.catalog import TCEntry, TransformationCatalog


class TestTCEntry:
    def test_requires_fields(self):
        with pytest.raises(ValueError):
            TCEntry("", "isi", "/bin/x")
        with pytest.raises(ValueError):
            TCEntry("t", "", "/bin/x")
        with pytest.raises(ValueError):
            TCEntry("t", "isi", "")


class TestTransformationCatalog:
    def make(self) -> TransformationCatalog:
        tc = TransformationCatalog()
        tc.install("galMorph", "isi", "/usr/bin/galmorph", version="1.0")
        tc.install("galMorph", "fnal", "/opt/vds/galmorph")
        tc.install("concatVOTable", "isi", "/usr/bin/concat")
        return tc

    def test_query_all_sites(self):
        tc = self.make()
        entries = tc.query("galMorph")
        assert {e.site for e in entries} == {"isi", "fnal"}

    def test_query_one_site(self):
        tc = self.make()
        entries = tc.query("galMorph", site="isi")
        assert len(entries) == 1
        assert entries[0].path == "/usr/bin/galmorph"

    def test_annotations_kept(self):
        tc = self.make()
        assert tc.query("galMorph", site="isi")[0].annotations == {"version": "1.0"}

    def test_unknown_transformation_empty(self):
        assert self.make().query("nope") == []

    def test_sites_providing_sorted(self):
        assert self.make().sites_providing("galMorph") == ["fnal", "isi"]

    def test_duplicate_rejected(self):
        tc = self.make()
        with pytest.raises(ValueError):
            tc.install("galMorph", "isi", "/usr/bin/galmorph")

    def test_same_site_different_path_allowed(self):
        tc = self.make()
        tc.install("galMorph", "isi", "/usr/bin/galmorph-v2")
        assert len(tc.query("galMorph", site="isi")) == 2

    def test_query_count(self):
        tc = self.make()
        before = tc.query_count
        tc.query("galMorph")
        assert tc.query_count == before + 1
