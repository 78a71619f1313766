"""Packed bit-parallel Boolean substrate.

Truth tables and simulation-vector words are stored as packed bitsets:
one arbitrary-precision Python ``int`` per :class:`BitVec`.  Bit *k* of a
``BitVec`` of width *W* is point/vector *k*; for truth tables
``W = 2**nvars`` and bit *i* of the point index is the value of variable
*i*, matching :meth:`repro.boolean.cube.Cube.evaluate`.

On top of :class:`BitVec` this module provides the kernels the rest of the
library's hot paths are built on:

* cover → packed truth table (:func:`cover_table`, :func:`key_table`,
  :func:`cube_table`) — per cube one big-int AND per literal instead of a
  Python loop over ``2**n`` points;
* packed cofactor / smoothing / tautology / minterm counting
  (:func:`cofactor_table`, :func:`smooth_table`, :func:`table_is_tautology`);
* Chow-parameter computation, single (:func:`chow_from_table`) and for a
  batch of cones (:func:`chow_batch`);
* weighted-sum enumeration over all input points
  (:func:`weighted_sums`), the workhorse of gate margin checks,
  multi-threshold placement, and cache vector re-verification;
* N-point evaluation of SOP functions over packed simulation words
  (:func:`eval_cover_vecs`), the inner loop of network simulation.

numpy appears only in the bool-array bridge (:meth:`BitVec.to_bool_array`,
:meth:`BitVec.from_bool_array`) that the vectorized verify, don't-care and
multi-threshold code reads through.  The differential suite
(``tests/boolean/test_bitset_differential.py``) pins every kernel to the
per-cube / per-point definition it replaced.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Widest truth table the packed kernels build (2**16 bits = 8 KiB);
#: wider functions stay on the recursive cover algebra.
MAX_TABLE_VARS = 16


def active_backend() -> str:
    """Name of the bitset representation, recorded in bench artifacts."""
    return "python"


class BitVec:
    """An immutable packed vector of ``width`` bits.

    ``words`` is a non-negative Python int below ``2**width``; every
    operator preserves that invariant.
    """

    __slots__ = ("width", "words")

    def __init__(self, width: int, words: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BitVec is immutable")

    def __reduce__(self):
        return (BitVec, (self.width, self.words))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, width: int) -> "BitVec":
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitVec":
        return cls(width, (1 << width) - 1)

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitVec":
        """Pack the low ``width`` bits of a Python int."""
        return cls(width, value & ((1 << width) - 1))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVec":
        """Pack a 0/1 sequence; ``bits[k]`` becomes bit ``k``."""
        value = 0
        for k, b in enumerate(bits):
            if b:
                value |= 1 << k
        return cls.from_int(value, len(bits))

    @classmethod
    def random(cls, width: int, rng) -> "BitVec":
        """Uniform random bits from a ``random.Random``."""
        return cls.from_int(rng.getrandbits(width), width)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_int(self) -> int:
        return self.words

    def to_bits(self) -> list[int]:
        value = self.words
        return [(value >> k) & 1 for k in range(self.width)]

    def to_bool_array(self):
        """A numpy bool array of the bits."""
        raw = self.words.to_bytes((self.width + 7) // 8, "little")
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), bitorder="little"
        )
        return bits[: self.width].astype(bool)

    @classmethod
    def from_bool_array(cls, array) -> "BitVec":
        """Pack a numpy bool/0-1 array."""
        array = np.asarray(array).astype(np.uint8)
        packed = np.packbits(array, bitorder="little").tobytes()
        width = int(array.shape[0])
        return cls.from_int(int.from_bytes(packed, "little"), width)

    # ------------------------------------------------------------------
    # Bitwise algebra
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words & other.words)

    def __or__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words | other.words)

    def __xor__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words ^ other.words)

    def andnot(self, other: "BitVec") -> "BitVec":
        """``self & ~other`` without materializing the complement."""
        return BitVec(self.width, self.words & ~other.words)

    def invert(self) -> "BitVec":
        return BitVec(self.width, ~self.words & ((1 << self.width) - 1))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Population count."""
        return self.words.bit_count()

    def is_zero(self) -> bool:
        return self.words == 0

    def is_ones(self) -> bool:
        """True when every one of the ``width`` bits is set."""
        return self.words == (1 << self.width) - 1

    def test(self, k: int) -> bool:
        """Value of bit ``k``."""
        return bool((self.words >> k) & 1)

    def first_set(self) -> int | None:
        """Index of the lowest set bit, or None when all-zero."""
        if self.words == 0:
            return None
        return (self.words & -self.words).bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        return self.width == other.width and self.words == other.words

    def __hash__(self) -> int:
        return hash((self.width, self.words))

    def __repr__(self) -> str:
        return f"BitVec(width={self.width}, popcount={self.count()})"


# ----------------------------------------------------------------------
# Truth-table structure: variable columns, cover tables, cofactors
# ----------------------------------------------------------------------

#: (nvars, var) -> BitVec column cache.  Columns are tiny (one table
#: each) and requested constantly, so a plain dict is the right call.
_column_cache: dict[tuple[int, int], BitVec] = {}


def variable_column(var: int, nvars: int) -> BitVec:
    """The packed truth table of variable ``var`` over ``2**nvars`` points."""
    key = (nvars, var)
    cached = _column_cache.get(key)
    if cached is not None:
        return cached
    width = 1 << nvars
    period = 1 << (var + 1)
    half = 1 << var
    block = (1 << half) - 1
    value = 0
    for start in range(half, width, period):
        value |= block << start
    column = BitVec(width, value)
    _column_cache[key] = column
    return column


def cube_table(pos: int, neg: int, nvars: int) -> BitVec:
    """Packed truth table of one cube given its literal masks."""
    table = BitVec.ones(1 << nvars)
    for var in range(nvars):
        bit = 1 << var
        if pos & bit:
            table = table & variable_column(var, nvars)
        elif neg & bit:
            table = table.andnot(variable_column(var, nvars))
    return table


def key_table(key: tuple) -> BitVec:
    """Packed truth table of a cover key ``(nvars, ((pos, neg), ...))``."""
    nvars, rows = key
    table = BitVec.zeros(1 << nvars)
    for pos, neg in rows:
        table = table | cube_table(pos, neg, nvars)
        if table.is_ones():
            break
    return table


def cover_table(cover) -> BitVec:
    """Packed truth table of a :class:`~repro.boolean.cover.Cover`.

    Goes through the cover's own memo slot when present so repeated
    requests for one instance are free.
    """
    packed = getattr(cover, "packed_table", None)
    if packed is not None:
        return packed()
    return key_table(
        (cover.nvars, tuple((c.pos, c.neg) for c in cover.cubes))
    )


def cofactor_table(table: BitVec, nvars: int, var: int, value: bool) -> BitVec:
    """Packed Shannon cofactor: ``var`` becomes free (both halves equal)."""
    column = variable_column(var, nvars)
    if value:
        sel = table.words & column.words
        return BitVec(table.width, sel | (sel >> (1 << var)))
    sel = table.words & ~column.words & ((1 << table.width) - 1)
    result = sel | (sel << (1 << var))
    return BitVec(table.width, result & ((1 << table.width) - 1))


def smooth_table(table: BitVec, nvars: int, var: int) -> BitVec:
    """Existential abstraction: OR of both cofactors."""
    return cofactor_table(table, nvars, var, False) | cofactor_table(
        table, nvars, var, True
    )


def table_is_tautology(table: BitVec) -> bool:
    return table.is_ones()


def table_support(table: BitVec, nvars: int) -> int:
    """Bitmask of variables the function actually depends on."""
    mask = 0
    for var in range(nvars):
        pos = cofactor_table(table, nvars, var, True)
        neg = cofactor_table(table, nvars, var, False)
        if pos != neg:
            mask |= 1 << var
    return mask


# ----------------------------------------------------------------------
# Chow parameters — single cone and cone batches
# ----------------------------------------------------------------------


def chow_from_table(table: BitVec, nvars: int, variables) -> dict[int, int]:
    """Chow parameters over the full space, matching the historical
    ``cover.restrict(var, True).num_minterms()`` definition (each count is
    doubled because the restricted cofactor leaves the variable free)."""
    return {
        var: 2 * (table & variable_column(var, nvars)).count()
        for var in variables
    }


def chow_batch(
    tables: Sequence[BitVec], nvars: int
) -> list[list[int]]:
    """Chow parameters for a batch of same-width cones.

    Entry ``[k][i]`` is the (doubled) Chow parameter of variable ``i`` of
    cone ``k``.
    """
    return [
        [2 * (t & variable_column(v, nvars)).count() for v in range(nvars)]
        for t in tables
    ]


# ----------------------------------------------------------------------
# Weighted sums over all input points
# ----------------------------------------------------------------------


def weighted_sums(weights: Sequence[int | float]) -> list:
    """Weighted input sums of all ``2**l`` points, in point order.

    Built by the doubling recurrence ``S_{i+1} = S_i ++ (S_i + w_i)``, so
    index ``p`` has bit *i* of ``p`` selecting whether ``w_i`` is added —
    the same point convention as the truth tables.  Returns a Python
    list; callers that want an array wrap it in ``np.asarray``.
    """
    sums = [0]
    for w in weights:
        sums = sums + [s + w for s in sums]
    return sums


def fires_table(sums: Sequence[int | float], threshold: int) -> BitVec:
    """Pack ``sums >= threshold`` into a truth-table BitVec."""
    return BitVec.from_bits([1 if s >= threshold else 0 for s in sums])


# ----------------------------------------------------------------------
# Packed N-point SOP evaluation (network simulation inner loop)
# ----------------------------------------------------------------------


def eval_cover_vecs(
    cover, fanin_vecs: Sequence[BitVec], width: int
) -> BitVec:
    """Evaluate an SOP over packed simulation words.

    ``fanin_vecs[i]`` carries the ``width`` simulation values of the
    cover's variable *i*; the result packs the cover's value on every
    vector.  One AND per literal per cube — the packed analogue of the
    historical int-mask loop.
    """
    result = BitVec.zeros(width)
    for cube in cover.cubes:
        term = BitVec.ones(width)
        for var, phase in cube.literals():
            vec = fanin_vecs[var]
            term = (term & vec) if phase else term.andnot(vec)
            if term.is_zero():
                break
        else:
            result = result | term
            if result.is_ones():
                break
    return result
