"""Tests that execute Theorems 1 and 2 and verify them on enumerations."""

import random

from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.core.theorems import or_with_inputs, replace_literal, theorem2_extend
from repro.core.threshold import WeightThresholdVector
from tests.conftest import random_cover


class TestReplaceLiteral:
    def test_paper_application(self):
        # f = x1 x2 + x3 x4; replacing x3 by x1' gives x1 x2 + x1' x4,
        # which is binate in x1 (hence not threshold) -> f not threshold.
        f = BooleanFunction.parse("x1 x2 + x3 x4")
        g = replace_literal(f, "x3", "x1")
        assert g.equivalent(BooleanFunction.parse("x1 x2 + x1' x4"))

    def test_contradictory_cubes_drop(self):
        f = BooleanFunction.parse("x1 x2")
        g = replace_literal(f, "x2", "x1")
        # x1 x1' drops: constant 0.
        assert g.cover.is_zero()

    def test_negative_phase_source(self):
        f = BooleanFunction.parse("x1' x2 + x3")
        g = replace_literal(f, "x1", "x3")
        # x1' -> x3: g = x3 x2 + x3 = x3 (after SCC ... semantically).
        assert g.equivalent(BooleanFunction.parse("x3 x2 + x3"))


class TestTheorem1Statement:
    def test_on_random_unate_functions(self):
        """If g (after literal replacement) is threshold-infeasible, the
        original f must be too — checked on random unate samples."""
        rng = random.Random(91)
        checker = ThresholdChecker()
        checked = 0
        for _ in range(300):
            cover = random_cover(rng, 4)
            f = BooleanFunction(cover, ("x1", "x2", "x3", "x4"))
            from repro.boolean.unate import syntactic_unateness

            if not syntactic_unateness(cover).is_unate:
                continue
            src, dst = rng.sample(["x1", "x2", "x3", "x4"], 2)
            g = replace_literal(f, src, dst)
            g_vec = checker.check_function(g)
            f_vec = checker.check_function(f)
            if g_vec is None and g.nvars > 0:
                assert f_vec is None, (f.to_expression(), src, dst)
            checked += 1
        assert checked > 50


class TestTheorem2:
    def test_paper_example(self):
        # f = x1 y2 with <1,1;2>; h = f + x3 has <1,1,2;2>.
        base = WeightThresholdVector((1, 1), 2)
        extended = theorem2_extend(base, 1)
        assert extended == WeightThresholdVector((1, 1, 2), 2)

    def test_negative_weight_example(self):
        # x1 x2' <1,-1;1>: positive threshold is 2, so the new weight is 2.
        base = WeightThresholdVector((1, -1), 1)
        extended = theorem2_extend(base, 1)
        assert extended == WeightThresholdVector((1, -1, 2), 1)

    def test_extension_implements_or(self):
        rng = random.Random(93)
        checker = ThresholdChecker()
        verified = 0
        for _ in range(200):
            cover = random_cover(rng, 3)
            f = BooleanFunction(cover, ("a", "b", "c"))
            vec = checker.check_function(f)
            if vec is None:
                continue
            extended = theorem2_extend(vec, 2, delta_on=0)
            h = or_with_inputs(f, ["y1", "y2"])
            h = h.rebased(["a", "b", "c", "y1", "y2"])
            for p in range(32):
                total = sum(
                    extended.weights[i] for i in range(5) if (p >> i) & 1
                )
                assert (total >= extended.threshold) == h.cover.evaluate(p), (
                    f.to_expression(),
                    vec,
                )
            verified += 1
        assert verified > 40

    def test_zero_extensions_identity(self):
        base = WeightThresholdVector((1, 2), 2)
        assert theorem2_extend(base, 0) == base

    def test_delta_on_raises_new_weight(self):
        base = WeightThresholdVector((1, 1), 2)
        assert theorem2_extend(base, 1, delta_on=2).weights[-1] == 4


class TestOrWithInputs:
    def test_adds_fresh_inputs(self):
        f = BooleanFunction.parse("a b")
        h = or_with_inputs(f, ["x"])
        assert h.evaluate({"a": 0, "b": 0, "x": 1})
        assert h.evaluate({"a": 1, "b": 1, "x": 0})
        assert not h.evaluate({"a": 1, "b": 0, "x": 0})
