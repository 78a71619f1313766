"""Unit tests for SOP covers and the recursive-paradigm operations."""

import random

import pytest

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.errors import CoverError
from tests.conftest import random_cover


class TestConstruction:
    def test_zero_and_one(self):
        assert Cover.zero(3).is_zero()
        assert Cover.one(3).is_tautology()

    def test_from_strings_mismatched_rows(self):
        with pytest.raises(CoverError):
            Cover.from_strings(["1-", "0"])

    def test_mixed_nvars_rejected(self):
        with pytest.raises(CoverError):
            Cover([Cube.full(2)], 3)

    def test_literal(self):
        cover = Cover.literal(1, False, 3)
        assert cover.to_strings() == ["-0-"]

    def test_from_truth_table(self):
        cover = Cover.from_truth_table([0, 1, 1, 0], 2)  # XOR
        assert sorted(cover.to_strings()) == ["01", "10"]

    def test_from_truth_table_length_check(self):
        with pytest.raises(CoverError):
            Cover.from_truth_table([0, 1, 1], 2)

    def test_immutability(self):
        cover = Cover.zero(1)
        with pytest.raises(AttributeError):
            cover.nvars = 2


class TestEvaluation:
    def test_evaluate_or_of_cubes(self):
        cover = Cover.from_strings(["11--", "--11"])
        assert cover.evaluate(0b0011)
        assert cover.evaluate(0b1100)
        assert not cover.evaluate(0b0101)

    def test_truth_table(self):
        cover = Cover.from_strings(["1-"])
        assert cover.truth_table() == [0, 1, 0, 1]

    def test_num_minterms_matches_truth_table(self):
        rng = random.Random(7)
        for _ in range(50):
            cover = random_cover(rng, rng.randint(1, 6))
            assert cover.num_minterms() == sum(cover.truth_table())


class TestScc:
    def test_removes_contained_cubes(self):
        cover = Cover.from_strings(["1--", "11-", "111"])
        assert cover.scc().to_strings() == ["1--"]

    def test_deduplicates(self):
        cover = Cover.from_strings(["10-", "10-"])
        assert cover.scc().num_cubes == 1

    def test_universal_cube_dominates(self):
        cover = Cover.from_strings(["---", "101"])
        assert cover.scc().to_strings() == ["---"]

    def test_canonical_key_is_order_independent(self):
        a = Cover.from_strings(["1--", "--1"])
        b = Cover.from_strings(["--1", "1--"])
        assert a.canonical_key() == b.canonical_key()

    def test_scc_marker_survives_pickling(self):
        """An SCC-form cover must stay its own SCC form after a round trip.

        The reduced cover's cube order is the parent cover's tie-break,
        not a function of its own cubes — if pickling dropped the
        ``scc() is self`` marker, an unpickled copy would re-reduce into
        a different cube order than the original.
        """
        import pickle

        parent = random_cover(random.Random(7), nvars=6, max_cubes=24)
        reduced = parent.scc()
        assert reduced.scc() is reduced
        clone = pickle.loads(pickle.dumps(reduced))
        assert clone.scc() is clone
        assert clone.cubes == reduced.cubes
        assert clone.scc().cubes == reduced.scc().cubes
        # A cover that never ran scc() still pickles through the plain
        # constructor path and re-reduces deterministically.
        fresh = pickle.loads(pickle.dumps(parent))
        assert fresh.scc().cubes == pickle.loads(
            pickle.dumps(fresh)
        ).scc().cubes


class TestCofactor:
    def test_shannon_partition(self):
        cover = Cover.from_strings(["11-", "0-1"])
        f0, f1 = cover.shannon(0)
        assert f0.to_strings() == ["--1"]
        assert f1.to_strings() == ["-1-"]

    def test_cofactor_by_cube(self):
        cover = Cover.from_strings(["11-", "--1"])
        result = cover.cofactor(Cube.from_string("1--"))
        assert sorted(result.to_strings()) == ["--1", "-1-"]

    def test_smooth(self):
        cover = Cover.from_strings(["10-"])
        smoothed = cover.smooth(1)
        assert smoothed.to_strings() == ["1--"]


class TestTautology:
    def test_shannon_pair_is_tautology(self):
        assert Cover.from_strings(["1-", "0-"]).is_tautology()

    def test_incomplete_cover_is_not(self):
        assert not Cover.from_strings(["1-", "01"]).is_tautology()

    def test_empty_cover_is_not(self):
        assert not Cover.zero(2).is_tautology()

    def test_zero_vars_nonempty_is_tautology(self):
        assert Cover.one(0).is_tautology()

    def test_fuzz_against_truth_table(self):
        rng = random.Random(11)
        for _ in range(200):
            cover = random_cover(rng, rng.randint(1, 6))
            assert cover.is_tautology() == all(cover.truth_table())


class TestComplement:
    def test_complement_of_zero_is_one(self):
        assert Cover.zero(2).complement().is_tautology()

    def test_complement_of_one_is_zero(self):
        assert Cover.one(2).complement().is_zero()

    def test_single_cube_de_morgan(self):
        comp = Cover.from_strings(["10"]).complement()
        assert sorted(comp.to_strings()) == ["-1", "0-"]

    def test_involution_fuzz(self):
        rng = random.Random(13)
        for _ in range(100):
            cover = random_cover(rng, rng.randint(1, 6))
            assert cover.complement().complement().equivalent(cover)

    def test_complement_truth_table_fuzz(self):
        rng = random.Random(17)
        for _ in range(100):
            cover = random_cover(rng, rng.randint(1, 6))
            want = [1 - b for b in cover.truth_table()]
            assert cover.complement().truth_table() == want


class TestContainmentEquivalence:
    def test_contains_cube(self):
        cover = Cover.from_strings(["1-", "01"])
        assert cover.contains_cube(Cube.from_string("11"))
        assert not cover.contains_cube(Cube.from_string("00"))

    def test_covers(self):
        big = Cover.from_strings(["1-", "-1"])
        small = Cover.from_strings(["11"])
        assert big.covers(small)
        assert not small.covers(big)

    def test_equivalent_modulo_representation(self):
        a = Cover.from_strings(["1-", "-1"])
        b = Cover.from_strings(["10", "-1"])
        assert a.equivalent(b)

    def test_equivalent_dimension_mismatch(self):
        with pytest.raises(CoverError):
            Cover.zero(2).equivalent(Cover.zero(3))


class TestConnectives:
    def test_union_product_xor_fuzz(self):
        rng = random.Random(19)
        for _ in range(80):
            n = rng.randint(1, 5)
            a, b = random_cover(rng, n), random_cover(rng, n)
            ta, tb = a.truth_table(), b.truth_table()
            assert a.union(b).truth_table() == [x | y for x, y in zip(ta, tb)]
            assert a.product(b).truth_table() == [x & y for x, y in zip(ta, tb)]
            assert a.xor(b).truth_table() == [x ^ y for x, y in zip(ta, tb)]

    def test_product_dimension_mismatch(self):
        with pytest.raises(CoverError):
            Cover.zero(2).product(Cover.zero(3))


class TestCompose:
    def test_compose_positive_unate(self):
        # f = x0 x1, substitute x1 <- x2 + x3
        f = Cover.from_strings(["11--"])
        g = Cover.from_strings(["--1-", "---1"])
        composed = f.compose(1, g)
        want = Cover.from_strings(["1-1-", "1--1"])
        assert composed.equivalent(want)

    def test_compose_binate_needs_complement(self):
        # f = x0'x1 + x0 x1'  (XOR); substituting x0 <- x2 gives x2 XOR x1.
        f = Cover.from_strings(["01--", "10--"])
        g = Cover.from_strings(["--1-"])
        composed = f.compose(0, g)
        for p in range(16):
            x1 = (p >> 1) & 1
            x2 = (p >> 2) & 1
            assert composed.evaluate(p) == bool(x2 ^ x1)

    def test_compose_fuzz(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 5)
            f = random_cover(rng, n)
            g = random_cover(rng, n)
            var = rng.randrange(n)
            # Ensure g does not depend on var (acyclic substitution).
            g = g.smooth(var)
            composed = f.compose(var, g)
            for p in range(1 << n):
                gval = g.evaluate(p)
                point = (p | (1 << var)) if gval else (p & ~(1 << var))
                assert composed.evaluate(p) == f.evaluate(point)


class TestMinterms:
    def test_minterms_unique(self):
        cover = Cover.from_strings(["1-", "-1"])
        points = list(cover.minterms())
        assert sorted(points) == [1, 2, 3]
        assert len(set(points)) == len(points)

    def test_iteration_and_len(self):
        cover = Cover.from_strings(["1-", "-1"])
        assert len(cover) == 2
        assert all(isinstance(c, Cube) for c in cover)
