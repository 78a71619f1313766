"""Unit-level tests for the suite-sweep harness (tiny circuit subset)."""

from dataclasses import replace

import pytest

from repro.experiments.extended_suite import (
    SuiteSummary,
    format_suite,
    resolve_jobs,
    run_suite,
)

TINY = ["majority", "z4ml", "tcon"]


@pytest.fixture(scope="module")
def tiny_summary():
    return run_suite(TINY, psi=3, verify_vectors=128)


def _without_timings(row):
    """A suite row minus its solver wall times (the only run-varying part)."""
    check = replace(row.check_stats, exact_wall_s=0.0, scipy_wall_s=0.0)
    return replace(row, check_stats=check)


class TestRunSuite:
    def test_rows_cover_names(self, tiny_summary):
        assert [r.name for r in tiny_summary.rows] == [
            "majority",
            "z4ml",
            "tcon",
        ]
        assert all(r.verified for r in tiny_summary.rows)

    def test_reduction_accounting(self, tiny_summary):
        for row in tiny_summary.rows:
            expected = (
                100.0
                * (row.one_to_one.gates - row.tels.gates)
                / row.one_to_one.gates
            )
            assert abs(row.reduction_percent - expected) < 1e-9

    def test_win_tie_loss_partition(self, tiny_summary):
        s = tiny_summary
        assert s.wins + s.ties + s.losses == len(s.rows)

    def test_best_and_worst(self, tiny_summary):
        best, worst = tiny_summary.best(), tiny_summary.worst()
        assert best.reduction_percent >= worst.reduction_percent

    def test_level_means(self, tiny_summary):
        assert tiny_summary.mean_tels_levels > 0
        assert tiny_summary.mean_one_to_one_levels > 0

    def test_format(self, tiny_summary):
        text = format_suite(tiny_summary)
        assert "majority" in text
        assert "mean reduction" in text


class TestJobPool:
    """Whole circuits are the parallel unit: a pooled suite must match."""

    def test_pooled_rows_equal_serial_rows(self, tiny_summary):
        pooled = run_suite(TINY, psi=3, verify_vectors=128, jobs=2)
        assert [_without_timings(r) for r in pooled.rows] == [
            _without_timings(r) for r in tiny_summary.rows
        ]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)


class TestEmptySummary:
    def test_zero_rows(self):
        empty = SuiteSummary(())
        assert empty.mean_reduction_percent == 0.0
        assert empty.wins == empty.ties == empty.losses == 0
        assert empty.best() is None and empty.worst() is None
