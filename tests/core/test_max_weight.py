"""Tests for the max-weight bound extension (RTD weight-range limits)."""

import pytest

from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.verify import verify_threshold_network
from tests.conftest import random_network


class TestCheckerBound:
    def test_function_needing_weight_2_rejected_at_bound_1(self):
        # x1 x2' + x1 x3' needs w1 = 2.
        f = BooleanFunction.parse("x1 x2' + x1 x3'")
        assert ThresholdChecker().check_function(f) is not None
        assert ThresholdChecker(max_weight=1).check_function(f) is None

    def test_unit_weight_functions_still_pass(self):
        f = BooleanFunction.parse("a b + a c + b c")  # majority: all 1s
        vec = ThresholdChecker(max_weight=1).check_function(f)
        assert vec is not None
        assert all(abs(w) <= 1 for w in vec.weights)

    def test_bound_respected_in_solutions(self):
        import random

        from tests.conftest import random_cover

        rng = random.Random(5)
        checker = ThresholdChecker(max_weight=2)
        for _ in range(80):
            cover = random_cover(rng, 4)
            vec = checker.check(cover)
            if vec is not None:
                assert all(abs(w) <= 2 for w in vec.weights), cover

    def test_cache_respects_bound(self):
        f = BooleanFunction.parse("x1 x2' + x1 x3'")
        a = ThresholdChecker(max_weight=None)
        b = ThresholdChecker(max_weight=1)
        assert a.check_function(f) is not None
        assert b.check_function(f) is None


class TestSynthesisWithBound:
    @pytest.mark.parametrize("bound", [1, 2])
    def test_all_gates_respect_bound(self, bound):
        for seed in (0, 1, 2):
            net = random_network(seed + 1700)
            th = synthesize(
                net, SynthesisOptions(psi=3, max_weight=bound, seed=seed)
            )
            for gate in th.gates():
                assert all(abs(w) <= bound for w in gate.weights), gate
            assert verify_threshold_network(net, th), (seed, bound)

    def test_bound_costs_gates(self):
        net = random_network(1750)
        free = synthesize(net, SynthesisOptions(psi=4))
        bounded = synthesize(net, SynthesisOptions(psi=4, max_weight=1))
        assert bounded.num_gates >= free.num_gates

    def test_bound_one_yields_and_or_network(self):
        """With |w| <= 1 every gate is a simple unate gate generalization."""
        net = random_network(1760)
        th = synthesize(net, SynthesisOptions(psi=3, max_weight=1))
        for gate in th.gates():
            assert all(w in (-1, 0, 1) for w in gate.weights)
        assert verify_threshold_network(net, th)
