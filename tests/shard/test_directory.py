"""The shared signature directory and the shard-side cache ladder."""

from __future__ import annotations

from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.scheduler.cache import RlsResultCache
from repro.shard.directory import FleetResultCache, SignatureStore

PAYLOAD = b"<VOTABLE>merged</VOTABLE>"


def _local_cache(name: str = "s0-cache") -> RlsResultCache:
    return RlsResultCache(ReplicaLocationService(), StorageSite(name), name)


class TestSignatureStore:
    def test_roundtrip_with_owner(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        lfn = store.store("sig-abc123", PAYLOAD, shard="s1")
        assert lfn == "sig-abc123.vot"
        assert store.lookup("sig-abc123") == PAYLOAD
        assert store.owner("sig-abc123") == "s1"
        assert sorted(p.name for p in store.root.glob("sig-*")) == ["sig-abc123.json", "sig-abc123.vot"]

    def test_missing_entries_answer_none(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        assert store.lookup("sig-nope") is None
        assert store.owner("sig-nope") is None

    def test_last_writer_wins_and_stays_consistent(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        store.store("sig-abc", b"first", shard="s0")
        store.store("sig-abc", b"second", shard="s3")
        assert store.lookup("sig-abc") == b"second"
        assert store.owner("sig-abc") == "s3"
        assert len(list(store.root.glob("sig-*.vot"))) == 1

    def test_atomic_writes_leave_no_temp_litter(self, tmp_path):
        root = tmp_path / "sigstore"
        store = SignatureStore(root)
        for i in range(16):
            store.store(f"sig-{i:04d}", PAYLOAD, shard="s0")
        assert not list(root.glob(".tmp-*"))
        assert len(list(root.glob("sig-*.vot"))) == 16

    def test_two_store_objects_share_one_directory(self, tmp_path):
        # the cross-shard property: independent processes see each other's
        # entries through nothing but the filesystem
        a = SignatureStore(tmp_path / "sigstore")
        b = SignatureStore(tmp_path / "sigstore")
        a.store("sig-x", PAYLOAD, shard="s0")
        assert b.lookup("sig-x") == PAYLOAD
        assert b.owner("sig-x") == "s0"


class TestFleetResultCache:
    def test_store_publishes_to_both_tiers(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        local = _local_cache()
        cache = FleetResultCache(store, "s0", local=local)
        cache.store("sig-abc", PAYLOAD)
        assert store.lookup("sig-abc") == PAYLOAD
        assert store.owner("sig-abc") == "s0"
        assert local.lookup("sig-abc") == PAYLOAD

    def test_local_hit_never_touches_the_shared_tier(self, tmp_path):
        cache = FleetResultCache(
            SignatureStore(tmp_path / "sigstore"), "s0", local=_local_cache()
        )
        cache.store("sig-abc", PAYLOAD)
        assert cache.lookup("sig-abc") == PAYLOAD
        assert cache.shared_hits == 0
        assert cache.cross_shard_hits == 0

    def test_cross_shard_hit_counted_when_owner_differs(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        store.store("sig-abc", PAYLOAD, shard="s1")  # someone else derived it
        cache = FleetResultCache(store, "s0", local=_local_cache())
        assert cache.lookup("sig-abc") == PAYLOAD
        assert cache.shared_hits == 1
        assert cache.cross_shard_hits == 1
        # pulled through: the second hit answers locally
        assert cache.lookup("sig-abc") == PAYLOAD
        assert cache.shared_hits == 1

    def test_own_shared_entry_is_not_a_cross_shard_hit(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore")
        store.store("sig-abc", PAYLOAD, shard="s0")
        cache = FleetResultCache(store, "s0", local=_local_cache())
        assert cache.lookup("sig-abc") == PAYLOAD
        assert cache.shared_hits == 1
        assert cache.cross_shard_hits == 0

    def test_miss_everywhere_returns_none(self, tmp_path):
        cache = FleetResultCache(
            SignatureStore(tmp_path / "sigstore"), "s0", local=_local_cache()
        )
        assert cache.lookup("sig-nope") is None

    def test_lfn_matches_store_naming(self, tmp_path):
        assert FleetResultCache.lfn_for("sig-abc") == "sig-abc.vot"
