"""Gate-model backends: registry, MT absorption, flash device rules.

The default (``ltg``) behavior is pinned separately by
``test_differential.py``; this module covers what the other backends add
on top — the registry plumbing, the multi-threshold parity absorption the
single-threshold flow cannot do, the flash grid/drift sign-off, and the
NP-transform algebra persistent entries round-trip through.
"""

from __future__ import annotations

import pytest

from repro.boolean.function import BooleanFunction
from repro.cache.canonical import NPTransform
from repro.core.identify import is_threshold_function
from repro.core.threshold import MultiThresholdVector, WeightThresholdVector
from repro.errors import ReproError
from repro.gates import (
    FlashModel,
    LtgModel,
    MultiThresholdModel,
    get_model,
    model_for_fingerprint,
    model_names,
    registered_models,
)

#: 3-input odd parity in SOP form — the smallest XOR cone worth absorbing.
XOR3 = "a b' c' + a' b c' + a' b' c + a b c"


class TestRegistry:
    def test_builtins_registered(self):
        assert set(model_names()) == {"ltg", "multi-threshold", "flash"}

    def test_get_model_returns_shared_instances(self):
        assert isinstance(get_model("ltg"), LtgModel)
        assert isinstance(get_model("multi-threshold"), MultiThresholdModel)
        assert isinstance(get_model("flash"), FlashModel)
        assert get_model("ltg") is get_model("ltg")

    def test_unknown_model_raises_with_known_names(self):
        with pytest.raises(ReproError, match="ltg"):
            get_model("cmos")

    def test_fingerprints_are_distinct(self):
        prints = [m.fingerprint for m in registered_models()]
        assert len(prints) == len(set(prints))

    def test_model_for_fingerprint_matches_family(self):
        # Exact fingerprints resolve, but so do re-parameterized ones from
        # the same family — the decode algebra is family-wide.
        assert model_for_fingerprint("ltg-v1").name == "ltg"
        assert model_for_fingerprint("mtg-v1:k6:w2").name == "multi-threshold"
        assert model_for_fingerprint("mtg-v1:k9:w3").name == "multi-threshold"
        assert model_for_fingerprint("flash-v1:L16:d0.1").name == "flash"
        assert model_for_fingerprint("quantum-v1") is None


class TestMultiThresholdAbsorption:
    def test_parity_is_not_a_single_threshold_function(self):
        assert is_threshold_function(BooleanFunction.parse(XOR3)) is None

    def test_parity_absorbs_into_one_k_threshold_gate(self):
        vector = is_threshold_function(
            BooleanFunction.parse(XOR3), gate_model="multi-threshold"
        )
        assert isinstance(vector, MultiThresholdVector)
        # <1,1,1; 1,2,3>: the weighted sum counts true inputs and the
        # output toggles at every threshold — exactly odd parity.
        assert vector.weights == (1, 1, 1)
        assert vector.thresholds == (1, 2, 3)
        for total, on in ((0, False), (1, True), (2, False), (3, True)):
            assert vector.fires(total) is on

    def test_threshold_functions_still_come_back_single(self):
        # Anything the LTG pipeline already handles must not grow extra
        # thresholds: the MT search only runs after the LTG path fails.
        vector = is_threshold_function(
            BooleanFunction.parse("a b + a c + b c"),
            gate_model="multi-threshold",
        )
        assert isinstance(vector, WeightThresholdVector)

    def test_mt_vector_verifies_against_its_cover(self):
        model = get_model("multi-threshold")
        xor2_key = (2, ((1, 2), (2, 1)))  # a b' + a' b
        good = MultiThresholdVector((1, 1), (1, 2))
        assert model.verify_vector(xor2_key, good, 0, 1)
        # An AND vector disagrees with XOR on (1, 1): rejected.
        bad = MultiThresholdVector((1, 1), (2,))
        assert not model.verify_vector(xor2_key, bad, 0, 1)

    def test_np_transform_roundtrip(self):
        model = get_model("multi-threshold")
        vector = MultiThresholdVector((1, 2, 1), (1, 3, 4))
        transform = NPTransform(perm=(2, 0, 1), flipped=(False, True, True))
        encoded = model.encode_canonical(vector, transform)
        assert encoded is not None and len(encoded) == 6
        decoded = model.decode_canonical(encoded, transform)
        assert decoded == vector

    def test_persistent_roundtrip(self, tmp_path):
        # An MT solve flushed to disk must come back verbatim on a warm
        # run — including its extra thresholds, which ride in the same
        # entry format as single-threshold weights.
        from repro.engine.store import ResultStore

        cold = is_threshold_function(
            BooleanFunction.parse(XOR3),
            cache_dir=str(tmp_path),
            gate_model="multi-threshold",
        )
        store = ResultStore.with_cache_dir(str(tmp_path))
        warm = is_threshold_function(
            BooleanFunction.parse(XOR3),
            store=store,
            gate_model="multi-threshold",
        )
        assert warm == cold
        assert store.stats.persistent_hits > 0


class TestFlashDeviceRules:
    def test_required_margin_scales_with_peak_weight(self):
        model = get_model("flash")
        assert model.required_margin(()) == 0
        assert model.required_margin((1, 1)) == 1
        assert model.required_margin((5, -3)) == 2  # ceil(0.25 * 5)
        assert model.required_margin((8,)) == 2

    def test_admits_vector_rejects_off_grid_weights(self):
        model = get_model("flash")
        assert not model.admits_vector(
            WeightThresholdVector((model.levels + 1,), 1)
        )
        assert not model.admits_vector(MultiThresholdVector((1, 1), (1, 2)))

    def test_admits_vector_enforces_the_drift_floor(self):
        model = get_model("flash")
        # <1, 1; 2> (AND): both margins are 0 < ceil(0.25 * 1) = 1.
        assert not model.admits_vector(WeightThresholdVector((1, 1), 2))
        # <2, 2; 3>: ON margin 1, OFF margin 1 — covers the drift of w=2.
        assert model.admits_vector(WeightThresholdVector((2, 2), 3))

    def test_or_vector_signs_off_its_own_drift(self):
        model = get_model("flash")
        vec = model.or_vector(3, 0, 1)
        on, off = vec.margins()
        req = model.required_margin(vec.weights)
        assert req > 0
        assert on >= req and off >= req

    def test_check_widens_margins_to_cover_drift(self):
        vector = is_threshold_function(
            BooleanFunction.parse("a b + a c + b c"), gate_model="flash"
        )
        assert isinstance(vector, WeightThresholdVector)
        model = get_model("flash")
        assert model.admits_vector(vector)


class TestEngineAbsorption:
    """End-to-end: the same parity cones, one gate model apart."""

    @staticmethod
    def _source(name):
        """6-bit parity alone, or the ``parmix`` stressor (58 ltg gates,
        26 multi-threshold), which adds wide-threshold and non-threshold
        cones around its parity cone."""
        from repro.benchgen.circuits import CircuitBuilder
        from repro.benchgen.extended import build_extended_benchmark

        if name == "parmix":
            return build_extended_benchmark("parmix")
        cb = CircuitBuilder("p6")
        cb.output(cb.parity_tree(cb.inputs("y", 6)), "even")
        return cb.done()

    def test_multi_threshold_beats_ltg_on_parity(self):
        from repro.core.area import network_stats
        from repro.core.synthesis import (
            SynthesisOptions,
            synthesize_with_report,
        )
        from repro.core.verify import verify_threshold_network
        from repro.network.scripts import prepare_tels

        for name in ("p6", "parmix"):
            results = {}
            for model in ("ltg", "multi-threshold"):
                source = self._source(name)
                net, report = synthesize_with_report(
                    prepare_tels(source),
                    SynthesisOptions(
                        psi=9, gate_model=model, preserve_sharing=False
                    ),
                )
                assert verify_threshold_network(source, net)
                results[model] = (
                    network_stats(net).gates,
                    report.checker.stats.multithreshold_hits,
                )
            ltg_gates, _ = results["ltg"]
            mt_gates, mt_hits = results["multi-threshold"]
            assert mt_hits >= 1, name
            assert mt_gates < ltg_gates, name
