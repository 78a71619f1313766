"""Wall-clock budgets through the solver stack and the threshold checker."""

from __future__ import annotations

from repro.boolean.cover import Cover
from repro.core.identify import ThresholdChecker
from repro.engine.store import ResultStore
from repro.ilp.branch_bound import solve_bb
from repro.ilp.model import IlpProblem, Status
from repro.ilp.solve import SolveInfo, solve_ilp_info


def branching_problem() -> IlpProblem:
    """min x s.t. 2x >= 1, x integer: the relaxation is fractional, so the
    solve cannot finish at the root node — a zero budget must trip."""
    p = IlpProblem(num_vars=1, objective=[1])
    p.add_constraint([2], ">=", 1)
    return p


class TestBranchBoundTimeLimit:
    def test_zero_budget_is_declared_not_proven(self):
        result = solve_bb(branching_problem(), time_limit_s=0.0)
        assert result.timed_out
        assert result.limit_hit
        assert result.status is Status.INFEASIBLE

    def test_ample_budget_solves_normally(self):
        result = solve_bb(branching_problem(), time_limit_s=60.0)
        assert result.status is Status.OPTIMAL
        assert not result.timed_out
        assert result.int_values() == (1,)

    def test_no_budget_means_no_timeout_flag(self):
        result = solve_bb(branching_problem())
        assert result.status is Status.OPTIMAL
        assert not result.timed_out


class TestDispatchTimeout:
    def test_exact_backend_reports_timeout_in_info(self):
        result, info = solve_ilp_info(
            branching_problem(), presolve=False, timeout_s=0.0
        )
        assert info.timed_out
        assert info.solves == 1
        assert result.status is Status.INFEASIBLE

    def test_untimed_solve_has_clean_info(self):
        result, info = solve_ilp_info(branching_problem(), presolve=False)
        assert result.status is Status.OPTIMAL
        assert not info.timed_out

    def test_info_timed_out_aggregates_attempts(self):
        info = SolveInfo()
        info.run(branching_problem(), time_limit_s=0.0)
        result = info.run(branching_problem())
        assert result.status is Status.OPTIMAL
        assert info.solves == 2
        assert info.timed_out  # one cut-short run taints the record


class _ExpiredDeadline:
    """A deadline whose budget is already spent but never raises, so the
    checker reaches the solver with a zero wall-clock limit."""

    def check(self, where: str) -> None:
        pass

    def remaining(self) -> float:
        return 0.0


def _threshold_cover() -> Cover:
    """The threshold function 2a + 6b + c + 9d + 5e + 3f >= 8."""
    weights = (2, 6, 1, 9, 5, 3)
    bits = [
        int(sum(w for i, w in enumerate(weights) if (p >> i) & 1) >= 8)
        for p in range(1 << len(weights))
    ]
    return Cover.from_truth_table(bits, len(weights))


def _check(store: ResultStore, deadline=None):
    checker = ThresholdChecker(
        use_fastpath=False, store=store, deadline=deadline
    )
    return checker, checker.check(_threshold_cover())


class TestTimedOutVerdictsAreNotCached:
    """A solve cut short by a deadline declares "not threshold" without
    proving it; the shared store must not serve that verdict later."""

    def test_in_memory_store(self):
        store = ResultStore()
        checker, vector = _check(store, _ExpiredDeadline())
        assert vector is None
        assert checker.stats.solver_timeouts == 1
        assert store.num_vectors == 0
        _, vector = _check(store)
        assert vector is not None
        assert store.num_vectors == 1

    def test_persistent_store(self, tmp_path):
        store = ResultStore.with_cache_dir(tmp_path)
        _, vector = _check(store, _ExpiredDeadline())
        assert vector is None
        store.flush_persistent()
        _, vector = _check(ResultStore.with_cache_dir(tmp_path))
        assert vector is not None
