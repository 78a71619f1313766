"""Differential test: fast path vs exact ILP on random unate covers.

On hundreds of randomized unate covers, (a) the Chow fast path and the
exact ILP agree on feasibility, and (b) every accepted weight–threshold
vector satisfies every ON/OFF inequality — checked here in the strongest
form, point by point over the full truth table with the defect tolerances.
"""

import random

import pytest

from repro.boolean.cover import Cover
from repro.core.identify import ThresholdChecker

NUM_COVERS = 520
#: Support sizes, skewed small (ILP width = support + 1) but reaching 10.
SIZE_POOL = [2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10]


def _random_unate_cover(rng: random.Random) -> Cover:
    """A random unate cover: positive rows, then a random phase per var."""
    nvars = rng.choice(SIZE_POOL)
    flip = [rng.random() < 0.4 for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 5)):
        row = []
        for var in range(nvars):
            lit = rng.choice("1--")
            if lit == "1" and flip[var]:
                lit = "0"
            row.append(lit)
        rows.append("".join(row))
    return Cover.from_strings(rows)


def _assert_vector_separates(cover, vec, delta_on, delta_off, context):
    """Every true point clears T + delta_on; every false point stays below."""
    for point in range(1 << cover.nvars):
        sum_w = sum(
            w for i, w in enumerate(vec.weights) if (point >> i) & 1
        )
        if cover.evaluate(point):
            assert sum_w >= vec.threshold + delta_on, (context, point)
        else:
            assert sum_w <= vec.threshold - delta_off, (context, point)


class TestDifferential:
    def _checkers(self):
        return {
            "fastpath": ThresholdChecker(use_fastpath=True),
            "exact": ThresholdChecker(use_fastpath=False),
        }

    def test_feasibility_agreement_and_inequalities(self):
        rng = random.Random(20260805)
        checkers = self._checkers()
        accepted = 0
        rejected = 0
        for index in range(NUM_COVERS):
            cover = _random_unate_cover(rng)
            results = {
                name: checker.check(cover)
                for name, checker in checkers.items()
            }
            verdicts = {name: r is not None for name, r in results.items()}
            assert len(set(verdicts.values())) == 1, (index, cover, verdicts)
            if results["fastpath"] is None:
                rejected += 1
                continue
            accepted += 1
            for name, vec in results.items():
                _assert_vector_separates(
                    cover, vec, delta_on=0, delta_off=1,
                    context=(index, name, cover),
                )
        # The distribution must actually exercise both outcomes.
        assert accepted >= 50
        assert rejected >= 50

    def test_fastpath_hits_match_ilp_optimum(self):
        """Where the fast path answers, its vector has the ILP's objective."""
        rng = random.Random(99)
        fast = ThresholdChecker(use_fastpath=True)
        slow = ThresholdChecker(use_fastpath=False)
        compared = 0
        for _ in range(120):
            cover = _random_unate_cover(rng)
            a = fast.check(cover)
            b = slow.check(cover)
            assert (a is None) == (b is None), cover
            if a is None:
                continue
            compared += 1
            obj_a = sum(abs(w) for w in a.weights) + a.to_positive_threshold()
            obj_b = sum(abs(w) for w in b.weights) + b.to_positive_threshold()
            assert obj_a == obj_b, (cover, a, b)
        assert compared >= 20

    @pytest.mark.parametrize("max_weight", [1, 2])
    def test_bounded_agreement(self, max_weight):
        """max_weight verdicts agree between the fast path and the ILP."""
        rng = random.Random(max_weight)
        fast = ThresholdChecker(
            use_fastpath=True, max_weight=max_weight
        )
        slow = ThresholdChecker(
            use_fastpath=False, max_weight=max_weight
        )
        for index in range(100):
            cover = _random_unate_cover(rng)
            a = fast.check(cover)
            b = slow.check(cover)
            assert (a is None) == (b is None), (index, cover)
            if a is not None:
                assert all(abs(w) <= max_weight for w in a.weights)
                _assert_vector_separates(
                    cover, a, 0, 1, (index, cover)
                )
