"""Unit tests for ILP-based threshold identification (Fig. 6)."""

import random

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker, is_threshold_function
from tests.conftest import random_cover


def gate_agrees(vector, cover):
    for p in range(1 << cover.nvars):
        total = sum(
            vector.weights[i] for i in range(cover.nvars) if (p >> i) & 1
        )
        if (total >= vector.threshold) != cover.evaluate(p):
            return False
    return True


class TestPaperExamples:
    def test_worked_ilp_example(self):
        # Section V-B: f = x1 x2' + x1 x3' -> <2, -1, -1; 1>.
        f = BooleanFunction.parse("x1 x2' + x1 x3'")
        vector = is_threshold_function(f)
        assert vector is not None
        assert vector.weights == (2, -1, -1)
        assert vector.threshold == 1

    def test_theorem2_example(self):
        # Section IV: x1 x2' + x3 -> <1, -1, 2; 1>.
        vector = is_threshold_function(BooleanFunction.parse("x1 x2' + x3"))
        assert vector is not None
        assert vector.weights == (1, -1, 2)
        assert vector.threshold == 1

    def test_classic_nonthreshold(self):
        # x1 x2 + x3 x4: the canonical non-threshold unate function.
        assert is_threshold_function(BooleanFunction.parse("x1 x2 + x3 x4")) is None

    def test_binate_rejected(self):
        assert is_threshold_function(BooleanFunction.parse("a b + a' c")) is None

    def test_xor_rejected(self):
        assert is_threshold_function(BooleanFunction.parse("a b' + a' b")) is None


class TestBasicGates:
    def test_and_gate(self):
        v = is_threshold_function(BooleanFunction.parse("a b c"))
        assert v.weights == (1, 1, 1) and v.threshold == 3

    def test_or_gate(self):
        v = is_threshold_function(BooleanFunction.parse("a + b + c"))
        assert v.weights == (1, 1, 1) and v.threshold == 1

    def test_buffer_and_inverter(self):
        assert is_threshold_function(BooleanFunction.parse("a")).threshold == 1
        inv = is_threshold_function(BooleanFunction.parse("a'"))
        assert inv.weights == (-1,) and inv.threshold == 0

    def test_majority(self):
        v = is_threshold_function(BooleanFunction.parse("a b + a c + b c"))
        assert v.weights == (1, 1, 1) and v.threshold == 2

    def test_nand_nor(self):
        nand = is_threshold_function(BooleanFunction.parse("a' + b'"))
        assert gate_agrees(nand, BooleanFunction.parse("a' + b'").cover)
        nor = is_threshold_function(BooleanFunction.parse("a' b'"))
        assert gate_agrees(nor, BooleanFunction.parse("a' b'").cover)

    def test_constants(self):
        one = ThresholdChecker().check(Cover.one(2))
        zero = ThresholdChecker().check(Cover.zero(2))
        assert one.evaluate([0, 0])
        assert not zero.evaluate([0, 0])


class TestDefectTolerances:
    def test_delta_on_widens_margin(self):
        f = BooleanFunction.parse("a b")
        tight = ThresholdChecker(delta_on=0).check_function(f)
        robust = ThresholdChecker(delta_on=2).check_function(f)
        # ON margin grows with delta_on.
        min_on_tight = sum(tight.weights) - tight.threshold
        min_on_robust = sum(robust.weights) - robust.threshold
        assert min_on_robust >= min_on_tight + 2

    def test_delta_increases_area(self):
        f = BooleanFunction.parse("a b + a c")
        small = ThresholdChecker(delta_on=0).check_function(f)
        big = ThresholdChecker(delta_on=3).check_function(f)
        assert big.area > small.area

    def test_solution_respects_deltas(self):
        rng = random.Random(77)
        for _ in range(60):
            cover = random_cover(rng, rng.randint(1, 4))
            for delta_on in (0, 1, 2):
                checker = ThresholdChecker(delta_on=delta_on, delta_off=1)
                vec = checker.check(cover)
                if vec is None:
                    continue
                for p in range(1 << cover.nvars):
                    total = sum(
                        vec.weights[i]
                        for i in range(cover.nvars)
                        if (p >> i) & 1
                    )
                    if cover.evaluate(p):
                        assert total >= vec.threshold + delta_on
                    else:
                        assert total <= vec.threshold - 1


class TestSoundness:
    def test_every_vector_implements_its_cover(self):
        rng = random.Random(81)
        for _ in range(250):
            cover = random_cover(rng, rng.randint(1, 5))
            vec = ThresholdChecker().check(cover)
            if vec is not None:
                assert gate_agrees(vec, cover), cover.to_strings()

    def test_completeness_small(self):
        # Exhaustive over all 3-variable functions: ILP-None must coincide
        # with brute-force non-existence of integer weights in a small box.
        from itertools import product

        checker = ThresholdChecker()
        for tt in product([0, 1], repeat=8):
            cover = Cover.from_truth_table(tt, 3)
            vec = checker.check(cover)
            brute = _brute_force_threshold(tt, 3, bound=3)
            assert (vec is not None) == brute, tt


def _brute_force_threshold(tt, nvars, bound):
    """Exhaustive search for integer weights in [-bound, bound]."""
    from itertools import product

    # delta_off=1 with integer weights equals the strict gate w.x >= T.
    for weights in product(range(-bound, bound + 1), repeat=nvars):
        sums = []
        for p in range(1 << nvars):
            sums.append(
                sum(weights[i] for i in range(nvars) if (p >> i) & 1)
            )
        on = [s for p, s in enumerate(sums) if tt[p]]
        off = [s for p, s in enumerate(sums) if not tt[p]]
        if not on or not off:
            return True  # constants are realizable
        if min(on) > max(off):
            return True
    return False


class TestCaching:
    def test_cache_hits_on_repeats(self):
        checker = ThresholdChecker()
        f = BooleanFunction.parse("a b + c")
        checker.check_function(f)
        before = checker.stats.cache_hits
        checker.check_function(f)
        assert checker.stats.cache_hits == before + 1

    def test_constraint_elimination_counted(self):
        # The Chow fast path would resolve this without formulating an ILP,
        # leaving both counters at zero; this test is about formulation.
        checker = ThresholdChecker(use_fastpath=False)
        checker.check_function(BooleanFunction.parse("a b + a c"))
        stats = checker.stats
        assert stats.constraints_emitted < stats.constraints_without_elimination

    def test_formulate_only(self):
        checker = ThresholdChecker()
        problem = checker.formulate_only(
            BooleanFunction.parse("a b + a c").cover
        )
        assert problem is not None
        assert problem.num_vars == 4  # w_a, w_b, w_c, T

    def test_formulate_only_binate_returns_none(self):
        checker = ThresholdChecker()
        assert checker.formulate_only(
            BooleanFunction.parse("a b + a' c").cover
        ) is None
