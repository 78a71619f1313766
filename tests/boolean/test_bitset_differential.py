"""Differential suite: packed bitset kernels vs legacy cube semantics.

Every packed kernel must agree bit-for-bit with the per-cube / per-point
definitions it replaced.  Property-based inputs come from the same cover
strategy the boolean substrate's other property tests use.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean import bitset
from repro.boolean.bitset import BitVec
from repro.boolean.cover import Cover, _count_minterms, _is_tautology
from repro.boolean.cube import Cube


@st.composite
def covers(draw, max_vars: int = 6, max_cubes: int = 6, nvars=None):
    if nvars is None:
        nvars = draw(st.integers(min_value=1, max_value=max_vars))
    rows = draw(
        st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            min_size=0,
            max_size=max_cubes,
        )
    )
    return Cover.from_strings(rows) if rows else Cover.zero(nvars)


@st.composite
def cover_batches(draw, max_vars: int = 6, max_batch: int = 5):
    """A batch of covers that share one variable count."""
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    batch = draw(st.lists(covers(nvars=nvars), min_size=0, max_size=max_batch))
    return nvars, batch


def legacy_truth_table(cover: Cover) -> list[int]:
    """The pre-substrate definition: a per-cube loop at every point."""
    return [
        int(any(cube.evaluate(p) for cube in cover.cubes))
        for p in range(1 << cover.nvars)
    ]


def pointwise_sum(weights, point: int):
    return sum(w for i, w in enumerate(weights) if (point >> i) & 1)


@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_cover_table_matches_legacy_evaluation(cover):
    table = bitset.cover_table(cover)
    assert table.to_bits() == legacy_truth_table(cover)
    assert table.count() == sum(legacy_truth_table(cover))


@given(cover=covers(), var=st.integers(min_value=0, max_value=5),
       value=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cofactor_table_matches_restrict(cover, var, value):
    var = var % cover.nvars
    table = bitset.cover_table(cover)
    packed = bitset.cofactor_table(table, cover.nvars, var, value)
    assert packed.to_bits() == legacy_truth_table(cover.restrict(var, value))


@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_tautology_matches_unate_recursion(cover):
    table = bitset.cover_table(cover)
    assert bitset.table_is_tautology(table) == _is_tautology(
        cover.canonical_key()
    )


@given(a=covers(max_vars=4), b=covers(max_vars=4))
@settings(max_examples=60, deadline=None)
def test_xor_matches_cover_xor(a, b):
    nvars = max(a.nvars, b.nvars)
    a = Cover([Cube(c.pos, c.neg, nvars) for c in a.cubes], nvars)
    b = Cover([Cube(c.pos, c.neg, nvars) for c in b.cubes], nvars)
    packed = bitset.cover_table(a) ^ bitset.cover_table(b)
    assert packed.to_bits() == legacy_truth_table(a.xor(b))


@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_chow_matches_restricted_minterm_counts(cover):
    table = bitset.cover_table(cover)
    chow = bitset.chow_from_table(table, cover.nvars, cover.support_vars())
    for var, value in chow.items():
        legacy = _count_minterms(cover.restrict(var, True).canonical_key())
        assert value == legacy


@given(batch=cover_batches())
@settings(max_examples=60, deadline=None)
def test_chow_batch_matches_chow_from_table(batch):
    nvars, cover_list = batch
    tables = [bitset.cover_table(c) for c in cover_list]
    rows = bitset.chow_batch(tables, nvars)
    assert len(rows) == len(tables)
    for table, row in zip(tables, rows):
        single = bitset.chow_from_table(table, nvars, range(nvars))
        assert row == [single[v] for v in range(nvars)]


@given(
    weights=st.lists(
        st.integers(min_value=-7, max_value=7), min_size=0, max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_weighted_sums_match_pointwise(weights):
    sums = bitset.weighted_sums(weights)
    expected = [pointwise_sum(weights, p) for p in range(1 << len(weights))]
    assert sums == expected


@given(
    weights=st.lists(
        st.one_of(
            st.integers(min_value=-7, max_value=7),
            st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
        ),
        min_size=0,
        max_size=7,
    ),
    threshold=st.integers(min_value=-12, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_fires_table_matches_pointwise_threshold(weights, threshold):
    table = bitset.fires_table(bitset.weighted_sums(weights), threshold)
    expected = [
        int(pointwise_sum(weights, p) >= threshold)
        for p in range(1 << len(weights))
    ]
    assert table.width == 1 << len(weights)
    assert table.to_bits() == expected


@pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_bool_array_round_trip(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    v = BitVec.from_int(value, width)
    array = v.to_bool_array()
    assert array.dtype == np.bool_
    assert array.shape == (width,)
    assert array.tolist() == [bool(b) for b in v.to_bits()]
    assert BitVec.from_bool_array(array) == v


@given(cover=covers(max_vars=4), var=st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_smooth_matches_cover_smooth(cover, var):
    var = var % cover.nvars
    table = bitset.cover_table(cover)
    packed = bitset.smooth_table(table, cover.nvars, var)
    assert packed.to_bits() == legacy_truth_table(cover.smooth(var))


class TestBitVecBasics:
    def test_roundtrip_and_algebra(self):
        a = BitVec.from_int(0b1011_0101, 8)
        b = BitVec.from_int(0b0110_0110, 8)
        assert (a & b).to_int() == 0b0010_0100
        assert (a | b).to_int() == 0b1111_0111
        assert (a ^ b).to_int() == 0b1101_0011
        assert a.andnot(b).to_int() == 0b1001_0001
        assert a.invert().to_int() == 0b0100_1010
        assert a.count() == 5
        assert a.test(0) and not a.test(1)
        assert BitVec.from_bits(a.to_bits()) == a

    def test_wide_vectors(self):
        # Cross the 64-bit boundary more than once.
        value = (1 << 199) | (1 << 64) | 1
        v = BitVec.from_int(value, 200)
        assert v.to_int() == value
        assert v.count() == 3
        assert v.invert().count() == 197
        assert not v.is_zero() and not v.is_ones()
        assert BitVec.ones(200).is_ones()

    def test_words_is_a_masked_int(self):
        v = BitVec.from_int(-1, 70)
        assert isinstance(v.words, int)
        assert v.words == (1 << 70) - 1
        assert v.invert().words == 0

    def test_variable_column_is_cached(self):
        first = bitset.variable_column(2, 4)
        again = bitset.variable_column(2, 4)
        assert first is again


class TestCoverMemoization:
    def test_construction_dedupes_exact_cubes(self):
        cube = Cube.from_string("1-0")
        cover = Cover([cube, cube, Cube.from_string("01-"), cube], 3)
        assert cover.num_cubes == 2

    def test_truth_table_memoized_on_instance(self):
        cover = Cover.from_strings(["1-0", "01-"])
        first = cover.packed_table()
        assert cover.packed_table() is first
        # truth_table() hands out fresh lists: mutation must not leak back.
        bits = cover.truth_table()
        bits[0] ^= 1
        assert cover.truth_table() != bits

    def test_canonical_key_and_scc_memoized(self):
        cover = Cover.from_strings(["1--", "11-", "0-1"])
        assert cover.canonical_key() is cover.canonical_key()
        reduced = cover.scc()
        assert cover.scc() is reduced
        # The SCC form knows it is already reduced.
        assert reduced.scc() is reduced

    def test_cached_properties_match_recomputation(self):
        cover = Cover.from_strings(["1-0", "01-", "-11"])
        assert cover.num_literals == sum(
            c.num_literals for c in cover.cubes
        )
        expected = 0
        for c in cover.cubes:
            expected |= c.support
        assert cover.support == expected

    def test_pickle_drops_caches_but_preserves_value(self):
        import pickle

        cover = Cover.from_strings(["1-0", "01-"])
        cover.packed_table()
        clone = pickle.loads(pickle.dumps(cover))
        assert clone == cover
        assert clone.truth_table() == cover.truth_table()
