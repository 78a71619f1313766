"""Ablation — ILP formulation and backend (DESIGN.md §6).

Two studies:

1. **Redundant-constraint elimination** (the paper's Section V-B trick of
   skipping don't-care positions): constraint counts with and without it,
   taken from the checker's instrumentation.
2. **Backend**: pure-Python exact branch & bound vs scipy/HiGHS — identical
   feasibility answers, different speed.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen.extended import build_extended_benchmark
from repro.boolean.cover import Cover
from repro.core.identify import ThresholdChecker
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.ilp.scipy_backend import have_scipy
from repro.network.scripts import prepare_tels


@pytest.fixture(scope="module")
def constraint_stats():
    # parmix at psi=9 keeps cones wide enough that the Chow fast path
    # cannot answer all of them, so some reach the ILP.
    prepared = prepare_tels(build_extended_benchmark("parmix"))
    _, report = synthesize_with_report(prepared, SynthesisOptions(psi=9))
    return report.checker.stats


def test_print_constraint_elimination(constraint_stats):
    s = constraint_stats
    print()
    print("ILP constraint elimination (parmix, psi=9)")
    print(f"  emitted constraints:      {s.constraints_emitted}")
    print(f"  without elimination:      {s.constraints_without_elimination}")
    print(f"  ILPs solved:              {s.ilp_solved}")
    print(f"  cache hits:               {s.cache_hits}")


def test_elimination_reduces_constraints(constraint_stats):
    s = constraint_stats
    assert s.ilp_solved > 0, "no cone reached the ILP: the ablation is vacuous"
    assert s.constraints_emitted < s.constraints_without_elimination


def _random_unate_covers(count: int, seed: int = 0) -> list[Cover]:
    from repro.boolean.unate import syntactic_unateness

    rng = random.Random(seed)
    covers = []
    while len(covers) < count:
        n = rng.randint(2, 5)
        rows = [
            "".join(rng.choice("01-") for _ in range(n))
            for _ in range(rng.randint(1, 5))
        ]
        cover = Cover.from_strings(rows)
        if syntactic_unateness(cover).is_unate:
            covers.append(cover)
    return covers


def test_backends_agree_on_workload():
    covers = _random_unate_covers(150)
    exact = ThresholdChecker(backend="exact")
    auto = ThresholdChecker(backend="auto")
    for cover in covers:
        assert (exact.check(cover) is None) == (auto.check(cover) is None)


def test_benchmark_exact_backend(benchmark):
    covers = _random_unate_covers(40, seed=1)

    def run():
        checker = ThresholdChecker(backend="exact")
        for cover in covers:
            checker.check(cover)

    benchmark(run)


@pytest.mark.skipif(not have_scipy(), reason="scipy missing")
def test_benchmark_scipy_backend(benchmark):
    covers = _random_unate_covers(40, seed=1)

    def run():
        checker = ThresholdChecker(backend="scipy")
        for cover in covers:
            checker.check(cover)

    benchmark(run)


def test_benchmark_memoized_checks(benchmark):
    """Repeated identical checks: the cache path."""
    covers = _random_unate_covers(40, seed=1)
    checker = ThresholdChecker(backend="exact")
    for cover in covers:
        checker.check(cover)

    def run():
        for cover in covers:
            checker.check(cover)

    benchmark(run)
