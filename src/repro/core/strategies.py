"""Alternative splitting strategies (the paper's future-work directions).

The conclusions of the paper suggest that "there may also exist better
partitioning heuristics" and that "different heuristics [may be] required
depending upon the optimization criteria".  This module implements two such
strategies next to the paper's Fig. 7 rules:

* ``lookahead`` — evaluate every candidate split variable with the actual
  ILP threshold check and pick the split whose parts are threshold
  functions (both if possible, else the larger one).  More ILP calls (all
  memoized), fewer recursion levels.
* ``balanced`` — ignore variable frequency and always halve the cube set,
  which minimizes the depth of the OR tree the recursion builds
  (delay-oriented criterion).

``make_splitter`` returns a callable with the same signature as
:func:`repro.core.splitting.split_unate`, so the synthesis engine treats
all strategies uniformly.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Protocol

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.core.splitting import UnateSplit, split_unate
from repro.errors import SynthesisError

Splitter = Callable[[BooleanFunction, random.Random], UnateSplit]


class _ChecksThreshold(Protocol):
    def check_function(self, function: BooleanFunction):
        ...


STRATEGIES = ("paper", "lookahead", "balanced")


def make_splitter(
    strategy: str,
    checker: _ChecksThreshold | None = None,
    psi: int = 3,
    options=None,
) -> Splitter:
    """Build the unate splitter for a strategy name.

    ``options`` (a :class:`~repro.core.synthesis.SynthesisOptions`) is an
    alternative way to configure the oracle-backed strategies: it supplies
    ``psi`` and, when no ``checker`` is passed, a checker built with the
    run's tolerance / fast-path configuration.
    """
    if options is not None:
        psi = options.psi
    if strategy == "paper":
        return split_unate
    if strategy == "balanced":
        return _split_balanced
    if strategy == "lookahead":
        if checker is None and options is not None:
            from repro.core.identify import ThresholdChecker

            checker = ThresholdChecker.from_options(options)
        if checker is None:
            raise SynthesisError("lookahead strategy needs a checker")
        return _LookaheadSplitter(checker, psi)
    raise SynthesisError(
        f"unknown splitting strategy {strategy!r}; choose from {STRATEGIES}"
    )


def _split_balanced(
    function: BooleanFunction, rng: random.Random
) -> UnateSplit:
    """Halve the cube set regardless of variable structure."""
    cover = function.cover.scc()
    if cover.num_cubes < 2:
        raise SynthesisError("cannot split a node with fewer than two cubes")
    half = (cover.num_cubes + 1) // 2
    part_a = BooleanFunction(
        Cover(cover.cubes[:half], cover.nvars), function.variables
    ).trimmed()
    part_b = BooleanFunction(
        Cover(cover.cubes[half:], cover.nvars), function.variables
    ).trimmed()
    return UnateSplit("or", (part_a, part_b))


class _LookaheadSplitter:
    """Rule-3 with an ILP oracle instead of the frequency heuristic."""

    def __init__(self, checker: _ChecksThreshold, psi: int):
        self._checker = checker
        self._psi = psi

    def __call__(
        self, function: BooleanFunction, rng: random.Random
    ) -> UnateSplit:
        cover = function.cover.scc()
        if cover.num_cubes < 2:
            raise SynthesisError(
                "cannot split a node with fewer than two cubes"
            )
        base = split_unate(function, rng)
        if base.mode == "and":
            return base  # common-cube factoring is already ideal
        best = base
        best_score = self._score(base)
        for var in cover.support_vars():
            bit = 1 << var
            with_var = [c for c in cover.cubes if (c.pos | c.neg) & bit]
            without = [c for c in cover.cubes if not ((c.pos | c.neg) & bit)]
            if not with_var or not without:
                continue
            candidate = UnateSplit(
                "or",
                (
                    BooleanFunction(
                        Cover(with_var, cover.nvars), function.variables
                    ).trimmed(),
                    BooleanFunction(
                        Cover(without, cover.nvars), function.variables
                    ).trimmed(),
                ),
            )
            score = self._score(candidate)
            if score > best_score:
                best, best_score = candidate, score
                if best_score >= 4:
                    break  # both halves threshold within psi: cannot improve
        return best

    def _score(self, split: UnateSplit) -> int:
        """2 points per threshold part that fits the fanin bound."""
        score = 0
        for part in split.parts:
            if part.nvars > self._psi:
                continue
            if self._checker.check_function(part) is not None:
                score += 2
        return score
