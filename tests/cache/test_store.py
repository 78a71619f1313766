"""Persistent cache file behavior: tolerance, atomicity, store layering."""

import json

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.cache.store import (
    ABSENT,
    FORMAT_NAME,
    cache_file,
    entry_key,
    open_cache,
    parse_signature,
    signature_string,
)
from repro.core.threshold import WeightThresholdVector
from repro.engine.store import ResultStore


def and_key(delta_on: int = 0, delta_off: int = 1) -> tuple:
    cover = Cover((Cube.from_literals({0: True, 1: True}, 2),), 2)
    return (cover.canonical_key(), delta_on, delta_off, None)


AND_VECTOR = WeightThresholdVector((1, 1), 2)


class TestSignatures:
    def test_signature_round_trip(self):
        key = (3, ((1, 2), (4, 0)))
        assert parse_signature(signature_string(key)) == key

    def test_empty_rows(self):
        key = (2, ())
        assert parse_signature(signature_string(key)) == key

    def test_entry_key_distinguishes_parameters(self):
        sig = signature_string((2, ((3, 0),)))
        keys = {
            entry_key(sig, 0, 1, None),
            entry_key(sig, 1, 1, None),
            entry_key(sig, 0, 2, None),
            entry_key(sig, 0, 1, 4),
        }
        assert len(keys) == 4


class TestPersistence:
    def test_put_flush_reload(self, tmp_path):
        cache = open_cache(tmp_path)
        assert cache.put("k1", [1, 2, 3])
        assert cache.put("k2", None)
        assert not cache.put("k1", [9])  # already known
        assert cache.flush() == 2
        again = open_cache(tmp_path)
        assert again.get("k1") == [1, 2, 3]
        assert again.get("k2") is None
        assert again.get("k3") is ABSENT
        assert again.solved_count == 1

    def test_flush_appends_incrementally(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.put("a", [1])
        cache.flush()
        cache.put("b", [2])
        assert cache.flush() == 1  # only the new entry
        assert len(open_cache(tmp_path)) == 2

    def test_corrupt_lines_are_skipped(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.put("good", [5])
        cache.flush()
        with open(cache_file(tmp_path), "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"k": 12, "v": [1]}\n')  # key must be a string
            handle.write('{"k": "torn", "v": [1')  # torn final line
        again = open_cache(tmp_path)
        assert again.get("good") == [5]
        assert len(again) == 1
        assert again.file_stats.corrupt_lines == 3

    def test_mismatched_header_goes_cold_then_rewrites(self, tmp_path):
        stale = open_cache(tmp_path, fingerprint="old-fingerprint")
        stale.put("k", [1])
        stale.flush()
        cache = open_cache(tmp_path)  # current fingerprint
        assert len(cache) == 0
        assert cache.file_stats.rejected_header
        cache.put("fresh", [2])
        cache.flush()
        text = cache_file(tmp_path).read_text()
        header = json.loads(text.splitlines()[0])
        assert header["format"] == FORMAT_NAME
        assert "old-fingerprint" not in text
        assert open_cache(tmp_path).get("fresh") == [2]

    def test_garbage_header_goes_cold(self, tmp_path):
        path = cache_file(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("complete nonsense\n")
        cache = open_cache(tmp_path)
        assert len(cache) == 0
        assert cache.file_stats.rejected_header

    def test_compaction_dedupes_concurrent_appends(self, tmp_path):
        # Two writers appending the same key: the loader keeps one copy and
        # compaction rewrites the file without the duplicate line.
        a = open_cache(tmp_path)
        b = open_cache(tmp_path)
        a.put("dup", [1])
        b.put("dup", [1])
        b.put("only-b", [2])
        a.flush()
        b.flush()
        merged = open_cache(tmp_path)
        assert len(merged) == 2
        merged.compact()
        lines = cache_file(tmp_path).read_text().splitlines()
        assert len(lines) == 3  # header + 2 entries

    def test_clear_removes_file(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.put("k", [1])
        cache.flush()
        cache.clear()
        assert len(cache) == 0
        assert not cache_file(tmp_path).exists()


class TestResultStoreLayering:
    def test_miss_then_persistent_hit_across_stores(self, tmp_path):
        first = ResultStore.with_cache_dir(tmp_path)
        key = and_key()
        assert first.is_miss(first.get_vector(key))
        first.put_vector(key, AND_VECTOR)
        assert first.flush_persistent() == 1

        second = ResultStore.with_cache_dir(tmp_path)
        found = second.get_vector(key)
        assert found == AND_VECTOR
        assert second.stats.persistent_hits == 1
        assert second.stats.vector_hits == 1  # served lookups count as hits
        # Installed in memory: the next lookup stays off the disk tier.
        second.get_vector(key)
        assert second.stats.persistent_hits == 1
        assert second.stats.vector_hits == 2

    def test_none_verdict_round_trips(self, tmp_path):
        first = ResultStore.with_cache_dir(tmp_path)
        key = and_key()
        first.put_vector(key, None)
        first.flush_persistent()
        second = ResultStore.with_cache_dir(tmp_path)
        found = second.get_vector(key)
        assert found is None
        assert not second.is_miss(found)
        assert second.stats.persistent_hits == 1

    def test_foreign_keys_stay_memory_only(self, tmp_path):
        store = ResultStore.with_cache_dir(tmp_path)
        store.put_vector(("canon", 0, 1, None), (1, 2, 3))
        assert store.get_vector(("canon", 0, 1, None)) == (1, 2, 3)
        assert store.flush_persistent() == 0
        assert store.stats.persistent_lookups == 0

    def test_corrupted_disk_entry_is_rejected_not_served(self, tmp_path):
        """A wrong vector on disk fails re-verification and falls through
        to a miss instead of poisoning synthesis."""
        store = ResultStore.with_cache_dir(tmp_path)
        key = and_key()
        store._persistent_put(key, WeightThresholdVector((1, 1), 1))  # OR!
        store.flush_persistent()
        fresh = ResultStore.with_cache_dir(tmp_path)
        assert fresh.is_miss(fresh.get_vector(key))
        assert fresh.stats.transform_rejects == 1
        assert fresh.stats.persistent_misses == 1

    def test_delta_settings_are_separate_disk_entries(self, tmp_path):
        store = ResultStore.with_cache_dir(tmp_path)
        store.put_vector(and_key(0, 1), AND_VECTOR)
        store.put_vector(and_key(0, 2), WeightThresholdVector((2, 2), 4))
        assert store.flush_persistent() == 2

    def test_read_only_cache_skips_persistent_put(self, tmp_path):
        open_cache(tmp_path).flush()
        cache = open_cache(tmp_path, read_only=True)
        store = ResultStore(persistent=cache)
        store.put_vector(and_key(), AND_VECTOR)
        assert store.flush_persistent() == 0
        assert cache.dirty_count == 0
