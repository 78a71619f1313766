"""Section VI-B's enumeration claims about threshold functions.

The paper cites Muroga's counts: all positive-unate functions of three or
fewer variables are threshold; 17 of 20 four-variable and 92 of 168
five-variable positive-unate functions are (classes under variable
permutation, functions depending on all their variables).  This module
regenerates those numbers: monotone functions are enumerated by the
Dedekind recursion (a monotone function of n variables is a pair
``f(x_n=0) <= f(x_n=1)`` of monotone functions of n-1 variables),
canonicalized under variable permutation, filtered to full support, and each
class is checked with the ILP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from repro.boolean.cover import Cover
from repro.core.identify import ThresholdChecker

#: (positive-unate classes, threshold classes) quoted in Section VI-B,
#: for functions depending on all n variables, up to permutation.
#: Note: our enumeration (and OEIS A006602 differences) gives 180 classes of
#: full-support monotone 5-variable functions, not the paper's 168 (which
#: coincides with the Dedekind number D(4) and appears to be a transcription
#: slip); the threshold count 92 matches exactly.
PAPER_COUNTS = {1: (1, 1), 2: (2, 2), 3: (5, 5), 4: (20, 17), 5: (168, 92)}
MEASURED_COUNTS = {1: (1, 1), 2: (2, 2), 3: (5, 5), 4: (20, 17), 5: (180, 92)}


@dataclass(frozen=True)
class EnumerationResult:
    """Counts for one variable arity."""

    nvars: int
    positive_unate_classes: int
    threshold_classes: int

    @property
    def fraction_threshold(self) -> float:
        if not self.positive_unate_classes:
            return 0.0
        return self.threshold_classes / self.positive_unate_classes


@lru_cache(maxsize=None)
def monotone_functions(nvars: int) -> tuple[tuple[int, ...], ...]:
    """All monotone (positive-unate) functions of ``nvars`` variables.

    Returned as truth-table tuples; the counts are the Dedekind numbers
    (2, 3, 6, 20, 168, 7581 for n = 0..5).
    """
    if nvars == 0:
        return ((0,), (1,))
    smaller = monotone_functions(nvars - 1)
    result = []
    for f0 in smaller:
        for f1 in smaller:
            if all(a <= b for a, b in zip(f0, f1)):
                result.append(f0 + f1)
    return tuple(result)


def _depends_on_all(bits: tuple[int, ...], nvars: int) -> bool:
    for var in range(nvars):
        step = 1 << var
        if all(
            bits[p] == bits[p + step]
            for p in range(len(bits))
            if not (p >> var) & 1
        ):
            return False
    return True


def _canonical_under_permutation(bits: tuple[int, ...], nvars: int) -> tuple:
    best = None
    for perm in permutations(range(nvars)):
        permuted = [0] * len(bits)
        for point in range(len(bits)):
            target = 0
            for var in range(nvars):
                if (point >> var) & 1:
                    target |= 1 << perm[var]
            permuted[target] = bits[point]
        key = tuple(permuted)
        if best is None or key < best:
            best = key
    return best


def count_positive_unate_threshold(
    nvars: int,
    full_support: bool = True,
    include_constants: bool = False,
) -> EnumerationResult:
    """Count positive-unate permutation classes and how many are threshold.

    Args:
        nvars: variable count (5 reproduces the paper's 92/168; runs in
            seconds thanks to the Dedekind recursion).
        full_support: count only functions depending on *all* variables
            (the paper's convention).
        include_constants: also count the two constants (only meaningful
            with ``full_support=False``).
    """
    checker = ThresholdChecker()
    seen: set[tuple] = set()
    unate = threshold = 0
    for bits in monotone_functions(nvars):
        if not include_constants and (not any(bits) or all(bits)):
            continue
        if full_support and not _depends_on_all(bits, nvars):
            continue
        key = _canonical_under_permutation(bits, nvars)
        if key in seen:
            continue
        seen.add(key)
        unate += 1
        cover = Cover.from_truth_table(bits, nvars)
        if checker.check(cover) is not None:
            threshold += 1
    return EnumerationResult(nvars, unate, threshold)
