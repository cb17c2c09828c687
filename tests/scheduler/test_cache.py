"""The on-disk result cache, and the rule that picks a manager's cache."""

from __future__ import annotations

import json
import os
import stat

from repro.scheduler.cache import RlsResultCache, SignatureStore, result_cache
from repro.scheduler.journal import JobJournal

PAYLOAD = b"<VOTABLE>merged</VOTABLE>"


def owner_of(store: SignatureStore, signature: str) -> str | None:
    """The owner an entry's meta file records (``None``: no entry)."""
    path = store.root / f"{signature}.json"
    return json.loads(path.read_text("utf-8"))["shard"] if path.exists() else None


class TestSignatureStore:
    def test_roundtrip_with_owner(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore", owner="s1")
        lfn = store.store("sig-abc123", PAYLOAD)
        assert lfn == "sig-abc123.vot"
        assert store.lookup("sig-abc123") == PAYLOAD
        assert owner_of(store, "sig-abc123") == "s1"
        assert sorted(p.name for p in store.root.glob("sig-*")) == ["sig-abc123.json", "sig-abc123.vot"]

    def test_missing_entries_answer_none(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore", owner="s0")
        assert store.lookup("sig-nope") is None
        assert owner_of(store, "sig-nope") is None
        assert store.cross_shard_hits == 0

    def test_last_writer_wins_and_stays_consistent(self, tmp_path):
        SignatureStore(tmp_path / "sigstore", owner="s0").store("sig-abc", b"first")
        store = SignatureStore(tmp_path / "sigstore", owner="s3")
        store.store("sig-abc", b"second")
        assert store.lookup("sig-abc") == b"second"
        assert owner_of(store, "sig-abc") == "s3"
        assert len(list(store.root.glob("sig-*.vot"))) == 1

    def test_atomic_writes_leave_no_temp_litter(self, tmp_path):
        root = tmp_path / "sigstore"
        store = SignatureStore(root, owner="s0")
        for i in range(16):
            store.store(f"sig-{i:04d}", PAYLOAD)
        assert not list(root.glob(".tmp-*"))
        assert len(list(root.glob("sig-*.vot"))) == 16

    def test_two_store_objects_share_one_directory(self, tmp_path):
        # the cross-process property: independent processes see each
        # other's entries through nothing but the filesystem
        a = SignatureStore(tmp_path / "sigstore", owner="s0")
        b = SignatureStore(tmp_path / "sigstore", owner="")
        a.store("sig-x", PAYLOAD)
        assert b.lookup("sig-x") == PAYLOAD
        assert owner_of(b, "sig-x") == "s0"

    def test_cross_shard_hit_counted_when_owner_differs(self, tmp_path):
        SignatureStore(tmp_path / "sigstore", owner="s1").store("sig-abc", PAYLOAD)
        store = SignatureStore(tmp_path / "sigstore", owner="s0")
        assert store.lookup("sig-abc") == PAYLOAD
        assert store.cross_shard_hits == 1
        # no local copy is made: every hit reads the store, and counts
        assert store.lookup("sig-abc") == PAYLOAD
        assert store.cross_shard_hits == 2

    def test_own_shared_entry_is_not_a_cross_shard_hit(self, tmp_path):
        store = SignatureStore(tmp_path / "sigstore", owner="s0")
        store.store("sig-abc", PAYLOAD)
        assert store.lookup("sig-abc") == PAYLOAD
        assert store.cross_shard_hits == 0

    def test_a_store_with_no_owner_counts_no_cross_shard_hit(self, tmp_path):
        # a single server (or the fleet coordinator reading a job's bytes)
        # is no shard: another shard's entry is just a hit
        SignatureStore(tmp_path / "sigstore", owner="s1").store("sig-abc", PAYLOAD)
        store = SignatureStore(tmp_path / "sigstore", owner="")
        assert store.lookup("sig-abc") == PAYLOAD
        assert store.cross_shard_hits == 0

    def test_miss_everywhere_returns_none(self, tmp_path):
        # other shards' entries in the shared directory answer nothing
        # for a signature that none of them derived
        SignatureStore(tmp_path / "sigstore", owner="s1").store("sig-abc", PAYLOAD)
        store = SignatureStore(tmp_path / "sigstore", owner="s0")
        assert store.lookup("sig-nope") is None
        assert store.cross_shard_hits == 0

    def test_lfn_matches_store_naming(self, tmp_path):
        assert SignatureStore.lfn_for("sig-abc") == RlsResultCache.lfn_for("sig-abc") == "sig-abc.vot"


class TestResultCache:
    """One rule: a file journal keeps its results beside it, on disk."""

    def test_a_file_journal_keeps_its_results_in_the_store_beside_it(self, tmp_path):
        cache = result_cache(JobJournal(tmp_path / "journal-s2.jsonl"), "s2", None)
        assert isinstance(cache, SignatureStore)
        assert (cache.root, cache.owner) == (tmp_path / "sigstore", "s2")

    def test_two_journals_in_one_directory_share_one_store(self, tmp_path):
        a = result_cache(JobJournal(tmp_path / "journal-s0.jsonl"), "s0", None)
        b = result_cache(JobJournal(tmp_path / "journal-s1.jsonl"), "s1", None)
        a.store("sig-abc", PAYLOAD)
        assert b.lookup("sig-abc") == PAYLOAD
        assert b.cross_shard_hits == 1

    def test_stored_entries_are_as_readable_as_the_journal_beside_them(self, tmp_path):
        old = os.umask(0o022)
        try:
            journal = JobJournal(tmp_path / "journal.jsonl")
            journal.open()
            cache = result_cache(journal, "s0", None)
            cache.store("sig-abc", PAYLOAD)
            journal.close()
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "journal.jsonl").stat().st_mode)
        assert mode == 0o644
        for name in ("sig-abc.vot", "sig-abc.json"):
            assert stat.S_IMODE((cache.root / name).stat().st_mode) == mode, name

    def test_an_in_memory_journal_keeps_an_in_memory_cache(self):
        cache = result_cache(JobJournal(None), "", None)
        assert isinstance(cache, RlsResultCache)
        cache.store("sig-abc", PAYLOAD)
        assert cache.lookup("sig-abc") == PAYLOAD
        assert result_cache(JobJournal(None), "", None).lookup("sig-abc") is None  # private
