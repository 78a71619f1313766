"""Tests for the Chow-parameter fast path (arXiv:2301.03667 pre-pass)."""

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.ilp.fastpath import (
    FastpathStatus,
    chow_parameters,
    fastpath_check,
    two_monotonicity_violation,
)


def _positive(rows) -> tuple[Cover, Cover]:
    """A positive-unate cover plus its (minimized) complement cubes."""
    from repro.boolean.minimize import minimize

    cover = minimize(Cover.from_strings(rows))
    return cover, minimize(cover.complement())


class TestChowParameters:
    def test_majority_is_fully_symmetric(self):
        cover, _ = _positive(["11-", "1-1", "-11"])
        chow = chow_parameters(cover)
        assert len(set(chow.values())) == 1

    def test_dominant_variable_ranks_first(self):
        # f = a + bc: a is true on more minterms than b or c.
        cover, _ = _positive(["1--", "-11"])
        chow = chow_parameters(cover)
        assert chow[0] > chow[1] == chow[2]


class TestTwoMonotonicity:
    def test_majority_passes(self):
        cover, _ = _positive(["11-", "1-1", "-11"])
        assert two_monotonicity_violation(cover) is None

    def test_disjoint_ands_fail(self):
        # x0 x1 + x2 x3 is the textbook non-2-monotonic unate function.
        cover, _ = _positive(["11--", "--11"])
        assert two_monotonicity_violation(cover) == (0, 2)


class TestFastpathVerdicts:
    def test_majority_hit_with_unit_weights(self):
        cover, off = _positive(["11-", "1-1", "-11"])
        result = fastpath_check(cover, off)
        assert result.status is FastpathStatus.HIT
        assert result.values == (1, 1, 1, 2)

    def test_and3_hit(self):
        cover, off = _positive(["111"])
        result = fastpath_check(cover, off)
        assert result.status is FastpathStatus.HIT
        assert result.values == (1, 1, 1, 3)

    def test_and3_hit_at_weight_box_edge(self):
        # Regression: the only feasible tuple fills the whole max_weight
        # box, so the box-exhaustion branch must return the found optimum,
        # not NOT_THRESHOLD.
        cover, off = _positive(["111"])
        result = fastpath_check(cover, off, max_weight=1)
        assert result.status is FastpathStatus.HIT
        assert result.values == (1, 1, 1, 3)

    def test_weighted_or_hit_matches_known_optimum(self):
        # Positive form of x1 x2' + x1 x3' (paper Fig. 5): optimum
        # (2, 1, 1; 3) before the phase map-back.
        cover, off = _positive(["11-", "1-1"])
        result = fastpath_check(cover, off)
        assert result.status is FastpathStatus.HIT
        assert result.values == (2, 1, 1, 3)

    def test_screen_rejects_non_2_monotonic(self):
        cover, off = _positive(["11--", "--11"])
        result = fastpath_check(cover, off)
        assert result.status is FastpathStatus.NOT_THRESHOLD
        assert result.screened

    def test_weight_box_exhaustion_proves_not_threshold(self):
        # x0 x1 + x0 x2 needs w0 = 2, so the [1,1]^3 box is infeasible.
        cover, off = _positive(["11-", "1-1"])
        result = fastpath_check(cover, off, max_weight=1)
        assert result.status is FastpathStatus.NOT_THRESHOLD
        assert not result.screened

    def test_wide_support_undecided(self):
        cover, off = _positive(["1" * 9])
        result = fastpath_check(cover, off)
        assert result.status is FastpathStatus.UNDECIDED

    def test_degenerate_tolerances_undecided(self):
        cover, off = _positive(["11-", "1-1", "-11"])
        result = fastpath_check(cover, off, delta_on=0, delta_off=0)
        assert result.status is FastpathStatus.UNDECIDED

    def test_budget_exhaustion_hands_back_candidate(self):
        # With a 3-tuple budget the search has already seen the feasible
        # (2,1,1;3) but not yet proved it optimal: the candidate comes back
        # as a warm start.
        cover, off = _positive(["11-", "1-1"])
        result = fastpath_check(cover, off, budget=3)
        assert result.status is FastpathStatus.UNDECIDED
        assert result.candidate == (2, 1, 1, 3)

    def test_zero_budget_undecided_without_candidate(self):
        cover, off = _positive(["11-", "1-1", "-11"])
        result = fastpath_check(cover, off, budget=0)
        assert result.status is FastpathStatus.UNDECIDED
        assert result.candidate is None


class TestCheckerIntegration:
    PAPER_FUNCTIONS = [
        "x1 x2' + x1 x3'",
        "x1' x2 + x3",
        "a b + a c + b c",
        "a b c",
        "a + b + c",
        "a b + a c + a d + b c d",
    ]

    def test_fastpath_reproduces_exact_ilp_vectors(self):
        for text in self.PAPER_FUNCTIONS:
            f = BooleanFunction.parse(text)
            fast = ThresholdChecker(use_fastpath=True)
            slow = ThresholdChecker(use_fastpath=False)
            assert fast.check_function(f) == slow.check_function(f), text
            assert fast.stats.fastpath_hits == 1, text
            assert fast.stats.ilp_solved == 0, text

    def test_fastpath_negative_skips_ilp(self):
        f = BooleanFunction.parse("x1 x2' + x1 x3'")
        checker = ThresholdChecker(max_weight=1)
        assert checker.check_function(f) is None
        assert checker.stats.fastpath_negatives == 1
        assert checker.stats.ilp_solved == 0

    def test_fastpath_vector_realizes_function(self):
        for text in self.PAPER_FUNCTIONS:
            f = BooleanFunction.parse(text)
            vec = ThresholdChecker().check_function(f)
            assert vec is not None, text
            cover = f.cover
            for point in range(1 << cover.nvars):
                inputs = [(point >> i) & 1 for i in range(cover.nvars)]
                assert vec.evaluate(inputs) == cover.evaluate(point), (
                    text,
                    point,
                )
