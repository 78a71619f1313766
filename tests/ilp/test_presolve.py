"""Tests for the exactness-preserving presolve layer."""

import random

from repro.ilp.model import IlpProblem, Status
from repro.ilp.presolve import (
    collapse_symmetric,
    expand_solution,
    presolve,
    symmetry_classes,
)
from repro.ilp.solve import solve_ilp


def _majority_like() -> IlpProblem:
    """min x0+x1+x2 s.t. every pair sums to >= 2 — fully symmetric."""
    p = IlpProblem(num_vars=3, objective=[1, 1, 1])
    p.add_constraint([1, 1, 0], ">=", 2)
    p.add_constraint([1, 0, 1], ">=", 2)
    p.add_constraint([0, 1, 1], ">=", 2)
    return p


class TestRowReductions:
    def test_duplicates_removed(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 1], ">=", 2)
        p.add_constraint([1, 1], ">=", 2)
        p.add_constraint([1, 1], ">=", 2)
        reduced, info = presolve(p)
        assert len(reduced.constraints) == 1
        assert info.duplicates_removed == 2
        assert info.rows_removed == 2

    def test_dominated_ge_row_dropped(self):
        # x0 + x1 >= 3 implies 2*x0 + x1 >= 2 over x >= 0.
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 1], ">=", 3)
        p.add_constraint([2, 1], ">=", 2)
        reduced, info = presolve(p)
        assert info.dominated_removed == 1
        assert len(reduced.constraints) == 1
        assert reduced.constraints[0].rhs == 3

    def test_dominated_le_row_dropped(self):
        # x0 + x1 <= 2 implies x0 <= 4 over x >= 0.
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 1], "<=", 2)
        p.add_constraint([1, 0], "<=", 4)
        reduced, info = presolve(p)
        assert info.dominated_removed == 1
        assert len(reduced.constraints) == 1

    def test_singleton_bounds_merged_to_tightest(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 0], "<=", 5)
        p.add_constraint([1, 0], "<=", 3)
        p.add_constraint([1, 0], "<=", 7)
        p.add_constraint([0, 1], ">=", 1)
        reduced, info = presolve(p)
        assert info.bounds_merged == 2
        kept = [
            c for c in reduced.constraints if c.coefficients[0] != 0
        ]
        assert len(kept) == 1
        assert kept[0].rhs == 3


class TestInfeasibilityDetection:
    def test_zero_row_infeasible(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([0, 0], ">=", 1)
        reduced, info = presolve(p)
        assert info.infeasible
        # Constraints are returned untouched so a solver can certify.
        assert len(reduced.constraints) == 1

    def test_nonnegative_le_negative_infeasible(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 2], "<=", -1)
        _, info = presolve(p)
        assert info.infeasible

    def test_empty_bound_box_infeasible(self):
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([1], "<=", 2)
        p.add_constraint([1], ">=", 3)
        _, info = presolve(p)
        assert info.infeasible

    def test_presolve_agrees_with_solver(self):
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([1], "<=", 2)
        p.add_constraint([1], ">=", 3)
        assert solve_ilp(p).status is Status.INFEASIBLE


class TestExactness:
    def _random_problem(self, rng):
        n = rng.randint(1, 4)
        p = IlpProblem(
            num_vars=n, objective=[rng.randint(0, 4) for _ in range(n)]
        )
        for _ in range(rng.randint(1, 6)):
            p.add_constraint(
                [rng.randint(-3, 3) for _ in range(n)],
                rng.choice(["<=", ">=", "=="]),
                rng.randint(-4, 6),
            )
        return p

    def test_reduced_model_has_same_optimum_fuzz(self):
        rng = random.Random(7)
        for _ in range(100):
            p = self._random_problem(rng)
            base = solve_ilp(p, presolve=False)
            if base.limit_hit:
                continue
            reduced, info = presolve(p)
            if info.infeasible:
                assert base.status is Status.INFEASIBLE
                continue
            again = solve_ilp(reduced, presolve=False)
            assert base.status == again.status
            if base.status is Status.OPTIMAL:
                assert base.objective == again.objective


class TestSymmetry:
    def test_symmetric_triplet_detected(self):
        classes = symmetry_classes(_majority_like())
        assert classes == ((0, 1, 2),)

    def test_objective_asymmetry_blocks_class(self):
        p = _majority_like()
        p.objective[0] = 2
        assert symmetry_classes(p) == ((1, 2),)

    def test_no_classes_on_asymmetric_model(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([2, 1], ">=", 3)
        assert symmetry_classes(p) == ()

    def test_collapse_and_expand_round_trip(self):
        p = _majority_like()
        collapse = collapse_symmetric(p)
        assert collapse is not None
        assert collapse.problem.num_vars == 1
        reduced = solve_ilp(collapse.problem)
        assert reduced.status is Status.OPTIMAL
        expanded = expand_solution(collapse, reduced.values)
        assert len(expanded) == 3
        assert p.is_feasible_point(expanded)
        # The symmetric optimum here coincides with the true optimum.
        assert p.objective_value(expanded) == 3

    def test_collapse_none_when_no_symmetry(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([2, 1], ">=", 3)
        assert collapse_symmetric(p) is None
