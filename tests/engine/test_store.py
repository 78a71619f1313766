"""The shared result store: tiers and statistics."""

from __future__ import annotations

from repro.engine.store import CoverAnalysis, ResultStore, StoreStats


class TestVectorTier:
    def test_miss_then_hit(self):
        store = ResultStore()
        key = ("canon", 0, 1, None)
        assert store.is_miss(store.get_vector(key))
        store.put_vector(key, (1, 2, 3))
        assert store.get_vector(key) == (1, 2, 3)
        assert store.stats.vector_hits == 1
        assert store.stats.vector_misses == 1

    def test_none_is_a_cached_value(self):
        """`None` means "proved non-threshold" — distinct from a miss."""
        store = ResultStore()
        key = ("canon", 0, 1, None)
        store.put_vector(key, None)
        hit = store.get_vector(key)
        assert hit is None
        assert not store.is_miss(hit)

    def test_delta_settings_are_separate_keys(self):
        store = ResultStore()
        store.put_vector(("c", 0, 1, None), "a")
        store.put_vector(("c", 2, 1, None), "b")
        assert store.num_vectors == 2


class TestAnalysisTier:
    def test_analysis_round_trip(self):
        store = ResultStore()
        analysis = CoverAnalysis(
            positive="pos", flipped=(True, False), off_cubes=("off",)
        )
        key = ("canon", True)
        assert store.is_miss(store.get_analysis(key))
        store.put_analysis(key, analysis)
        assert store.get_analysis(key) is analysis
        assert store.stats.analysis_hits == 1


class TestStats:
    def test_since_subtracts_baseline(self):
        store = ResultStore()
        store.put_vector(("k", 0, 1, None), 1)
        store.get_vector(("k", 0, 1, None))
        before = store.stats.snapshot()
        store.get_vector(("k", 0, 1, None))
        store.get_vector(("absent", 0, 1, None))
        delta = store.stats.since(before)
        assert delta.vector_hits == 1
        assert delta.vector_misses == 1

    def test_hit_rates_handle_zero_traffic(self):
        stats = StoreStats()
        assert stats.vector_hit_rate == 0.0
        assert stats.analysis_hit_rate == 0.0
        assert stats.persistent_hit_rate == 0.0

    def test_snapshot_is_isolated(self):
        stats = StoreStats(vector_hits=1, persistent_hits=2)
        frozen = stats.snapshot()
        stats.vector_hits += 5
        stats.transformed_hits += 1
        assert frozen.vector_hits == 1
        assert frozen.transformed_hits == 0

    def test_since_covers_every_counter(self):
        """before + since(before) == after, field by field — a new counter
        that misses the generic derivation would break this."""
        from dataclasses import fields

        before = StoreStats(vector_hits=1, analysis_misses=2)
        after = StoreStats(
            vector_hits=4,
            vector_misses=3,
            analysis_hits=2,
            analysis_misses=5,
            persistent_hits=7,
            persistent_misses=1,
            transformed_hits=6,
            transform_rejects=1,
        )
        delta = after.since(before)
        rebuilt = before.snapshot()
        rebuilt.add(delta)
        for f in fields(StoreStats):
            assert getattr(rebuilt, f.name) == getattr(after, f.name), f.name
