"""Tests for the Replica Location Service and storage sites."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import TransportError
from repro.rls.rls import LocalReplicaCatalog, Replica, ReplicaLocationService
from repro.rls.site import StorageSite


class TestLocalReplicaCatalog:
    def test_register_lookup(self):
        lrc = LocalReplicaCatalog("isi")
        lrc.register("b", "gsiftp://isi/data/b")
        assert lrc.lookup("b") == ["gsiftp://isi/data/b"]
        assert lrc.lookup("missing") == []

    def test_multiple_pfns_sorted(self):
        lrc = LocalReplicaCatalog("isi")
        lrc.register("b", "gsiftp://isi/z")
        lrc.register("b", "gsiftp://isi/a")
        assert lrc.lookup("b") == ["gsiftp://isi/a", "gsiftp://isi/z"]

    def test_unregister(self):
        lrc = LocalReplicaCatalog("isi")
        lrc.register("b", "p1")
        lrc.register("b", "p2")
        lrc.unregister("b", "p1")
        assert lrc.lookup("b") == ["p2"]
        lrc.unregister("b")
        assert lrc.lfns() == []
        with pytest.raises(KeyError):
            lrc.unregister("b")


class TestReplicaLocationService:
    def make(self) -> ReplicaLocationService:
        rls = ReplicaLocationService()
        for site in ("isi", "uwisc", "fnal"):
            rls.add_site(site)
        return rls

    def test_register_and_lookup_across_sites(self):
        rls = self.make()
        rls.register("b", "gsiftp://isi/b", "isi")
        rls.register("b", "gsiftp://fnal/b", "fnal")
        replicas = rls.lookup("b")
        assert len(replicas) == 2
        assert {r.site for r in replicas} == {"isi", "fnal"}
        assert all(isinstance(r, Replica) for r in replicas)

    def test_exists(self):
        rls = self.make()
        assert not rls.exists("x")
        rls.register("x", "p", "isi")
        assert rls.exists("x")

    def test_unknown_site_rejected(self):
        rls = self.make()
        with pytest.raises(KeyError):
            rls.register("x", "p", "nowhere")

    def test_duplicate_site_rejected(self):
        rls = self.make()
        with pytest.raises(ValueError):
            rls.add_site("isi")

    def test_unregister_cleans_index(self):
        rls = self.make()
        rls.register("x", "p", "isi")
        rls.unregister("x", "isi")
        assert not rls.exists("x")
        assert rls.lookup("x") == []

    def test_unregister_partial_keeps_index(self):
        rls = self.make()
        rls.register("x", "p1", "isi")
        rls.register("x", "p2", "fnal")
        rls.unregister("x", "isi")
        assert rls.exists("x")
        assert [r.site for r in rls.lookup("x")] == ["fnal"]

    def test_lookup_many(self):
        rls = self.make()
        rls.register("a", "p", "isi")
        out = rls.lookup_many(["a", "b"])
        assert len(out["a"]) == 1 and out["b"] == []

    def test_query_count_tracked(self):
        rls = self.make()
        before = rls.query_count
        rls.exists("a")
        rls.lookup("a")
        assert rls.query_count == before + 2

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["isi", "uwisc"])), max_size=20))
    def test_index_consistent_with_catalogs(self, ops):
        rls = self.make()
        for lfn, site in ops:
            rls.register(lfn, f"gsiftp://{site}/{lfn}", site)
        for lfn in ("a", "b", "c"):
            replicas = rls.lookup(lfn)
            assert rls.exists(lfn) == bool(replicas)
            # every reported replica is really in that site's catalog
            for r in replicas:
                assert r.pfn == f"gsiftp://{r.site}/{lfn}"


class TestStorageSite:
    def test_put_get(self):
        site = StorageSite("isi")
        pfn = site.pfn_for("b")
        site.put(pfn, b"hello")
        assert site.get(pfn) == b"hello"
        assert site.size(pfn) == 5
        assert site.exists(pfn)

    def test_pfn_scheme(self):
        assert StorageSite("isi").pfn_for("x") == "gsiftp://isi.grid/data/x"
        assert StorageSite("s", "http://cache").pfn_for("x") == "http://cache/data/x"

    def test_size_only_files(self):
        site = StorageSite("isi")
        site.put_size("p", 1000)
        assert site.size("p") == 1000
        with pytest.raises(TransportError):
            site.get("p")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            StorageSite("isi").put_size("p", -1)

    def test_missing_file(self):
        site = StorageSite("isi")
        with pytest.raises(TransportError):
            site.get("nope")
        with pytest.raises(TransportError):
            site.size("nope")
        with pytest.raises(TransportError):
            site.delete("nope")

    def test_delete(self):
        site = StorageSite("isi")
        site.put("p", b"x")
        site.delete("p")
        assert not site.exists("p")

    def test_totals(self):
        site = StorageSite("isi")
        site.put("a", b"12345")
        site.put_size("b", 10)
        assert site.size("a") + site.size("b") == 15
        assert site.exists("a") and site.exists("b")

    def test_requires_name(self):
        with pytest.raises(ValueError):
            StorageSite("")
