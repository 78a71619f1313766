"""Tests for the alternative splitting strategies (future-work extensions)."""

import random

import pytest

from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.core.strategies import STRATEGIES, make_splitter
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.verify import verify_threshold_network
from repro.errors import SynthesisError
from tests.conftest import random_network


class TestFactory:
    def test_known_strategies(self):
        checker = ThresholdChecker()
        for name in STRATEGIES:
            assert make_splitter(name, checker) is not None

    def test_unknown_strategy(self):
        with pytest.raises(SynthesisError):
            make_splitter("quantum")

    def test_lookahead_requires_checker(self):
        with pytest.raises(SynthesisError):
            make_splitter("lookahead", None)

    def test_options_validate_strategy(self):
        with pytest.raises(SynthesisError):
            synthesize(
                random_network(1),
                SynthesisOptions(splitting_strategy="bogus"),
            )


class TestBalanced:
    def test_halves_cubes(self):
        splitter = make_splitter("balanced")
        f = BooleanFunction.parse("a b + a c + a d + e g")
        split = splitter(f, random.Random(0))
        assert split.mode == "or"
        sizes = sorted(p.num_cubes for p in split.parts)
        assert sizes == [2, 2]

    def test_rejects_single_cube(self):
        splitter = make_splitter("balanced")
        with pytest.raises(SynthesisError):
            splitter(BooleanFunction.parse("a b"), random.Random(0))


class TestLookahead:
    def test_finds_double_threshold_split(self):
        checker = ThresholdChecker()
        splitter = make_splitter("lookahead", checker, psi=4)
        # ab + ac + de + dg: splitting on a gives two threshold halves.
        f = BooleanFunction.parse("a b + a c + d e + d g")
        split = splitter(f, random.Random(0))
        assert split.mode == "or"
        for part in split.parts:
            assert checker.check_function(part) is not None

    def test_preserves_and_mode(self):
        checker = ThresholdChecker()
        splitter = make_splitter("lookahead", checker, psi=4)
        f = BooleanFunction.parse("a b + a c d")
        split = splitter(f, random.Random(0))
        assert split.mode == "and"


class TestEndToEnd:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_synthesize_correctly(self, strategy):
        for seed in (0, 1, 2):
            net = random_network(seed + 1500)
            th = synthesize(
                net,
                SynthesisOptions(psi=3, splitting_strategy=strategy, seed=seed),
            )
            assert th.max_fanin() <= 3
            assert verify_threshold_network(net, th), (strategy, seed)

    def test_parts_always_recombine(self):
        checker = ThresholdChecker()
        rng = random.Random(3)
        from tests.conftest import random_cover
        from repro.boolean.unate import syntactic_unateness

        for strategy in STRATEGIES:
            splitter = make_splitter(strategy, checker)
            for _ in range(60):
                cover = random_cover(rng, 4).scc()
                if cover.num_cubes < 2:
                    continue
                if not syntactic_unateness(cover).is_unate:
                    continue
                f = BooleanFunction(cover, ("a", "b", "c", "d"))
                split = splitter(f, rng)
                a = split.parts[0].rebased(f.variables)
                b = split.parts[1].rebased(f.variables)
                for p in range(16):
                    if split.mode == "or":
                        want = a.cover.evaluate(p) or b.cover.evaluate(p)
                    else:
                        want = a.cover.evaluate(p) and b.cover.evaluate(p)
                    assert want == f.cover.evaluate(p), (strategy, cover)
