"""Differential acceptance: cached synthesis must match cache-free synthesis.

Three configurations of the same work — cache disabled, cold cache, warm
cache — must classify every function identically and emit networks that are
simulation-equivalent to the source.  Every vector served by the cache
(including NP-transformed ones) must satisfy its cover's ON/OFF sets with
the full delta margins, which is re-checked here explicitly on top of the
lookup path's own verification.
"""

import random

from repro.benchgen.random_logic import random_logic_network
from repro.cache.canonical import verify_vector_key
from repro.core.identify import ThresholdChecker
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.engine.store import ResultStore
from tests.cache.test_canonical import random_cover


class TestDifferentialCovers:
    def test_cold_warm_disabled_agree_on_200_covers(self, tmp_path):
        rng = random.Random(2026)
        covers = [random_cover(rng, rng.randint(2, 5)) for _ in range(200)]
        cache_dir = tmp_path / "cache"

        plain = ThresholdChecker(store=ResultStore())
        cold = ThresholdChecker(store=ResultStore.with_cache_dir(cache_dir))
        cold_results = [cold.check(c) for c in covers]
        cold.store.flush_persistent()
        warm = ThresholdChecker(store=ResultStore.with_cache_dir(cache_dir))

        solved = 0
        for cover, cold_vector in zip(covers, cold_results):
            plain_vector = plain.check(cover)
            warm_vector = warm.check(cover)
            # Threshold-ness is a property of the function: every
            # configuration must agree on the classification.
            assert (plain_vector is None) == (cold_vector is None)
            assert (plain_vector is None) == (warm_vector is None)
            if plain_vector is None:
                continue
            solved += 1
            # Vectors may legitimately differ (a transported NP-equivalent
            # solve), but each must honor the cover's margins exactly.
            key = cover.scc().canonical_key()
            for vector in (plain_vector, cold_vector, warm_vector):
                assert verify_vector_key(key, vector, 0, 1)
        assert solved > 50
        assert warm.store.stats.persistent_hits > 0
        assert warm.store.stats.transform_rejects == 0
        # The cold pass itself transports solves between NP-equivalent
        # covers of the batch — the intra-run benefit of the canonical key.
        assert cold.store.stats.persistent_lookups > 0


class TestDifferentialNetworks:
    def test_networks_equivalent_across_cache_modes(self, tmp_path):
        cache_dir = str(tmp_path / "netcache")
        options = SynthesisOptions(psi=3, seed=0)
        for seed in (1, 2, 3):
            source = random_logic_network(
                f"rand{seed}", num_inputs=6, num_outputs=2, num_nodes=10,
                seed=seed,
            )
            disabled, _ = synthesize_with_report(source, options)
            cold, _ = synthesize_with_report(
                source, options, cache_dir=cache_dir
            )
            warm, warm_report = synthesize_with_report(
                source, options, cache_dir=cache_dir
            )
            for network in (disabled, cold, warm):
                assert verify_threshold_network(source, network), seed
            warm_store = warm_report.checker.store
            assert warm_store.stats.transform_rejects == 0
            # A fresh in-memory store over a warm directory: the on-disk
            # tier answers every first-touch lookup.
            assert warm_store.stats.persistent_hit_rate == 1.0

    def test_warm_gates_keep_their_delta_margins(self, tmp_path):
        """Every gate of a cache-warm network must still meet the defect
        tolerances it is labeled with (Eq. 1), transformed hits included."""
        cache_dir = str(tmp_path / "margins")
        options = SynthesisOptions(psi=3, seed=0, delta_on=1, delta_off=1)
        source = random_logic_network(
            "margins", num_inputs=6, num_outputs=2, num_nodes=12, seed=4
        )
        synthesize_with_report(source, options, cache_dir=cache_dir)
        warm, report = synthesize_with_report(
            source, options, cache_dir=cache_dir
        )
        assert verify_threshold_network(source, warm)
        for gate in warm.gates():
            on_margin, off_margin = gate.margins()
            if on_margin is not None:
                assert on_margin >= gate.delta_on, gate.name
            if off_margin is not None:
                assert off_margin >= gate.delta_off, gate.name
