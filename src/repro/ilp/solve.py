"""ILP solving: presolve → exact branch & bound → verify.

Every call runs the exactness-preserving :mod:`repro.ilp.presolve` pass
first (duplicate/dominated-row elimination, bound consolidation), and when
the reduced model still has interchangeable variables, a symmetry-collapsed
pre-solve supplies the branch & bound with a warm-start incumbent.  The
reduced model is then solved by the exact rational branch & bound
(:func:`repro.ilp.branch_bound.solve_bb`), and an OPTIMAL point is
re-verified against the *original* model, which also guards the presolve
reductions themselves.  :func:`solve_ilp_info` returns the result together
with a :class:`SolveInfo` record for the telemetry pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from repro.ilp.branch_bound import solve_bb, verify_integral_solution
from repro.ilp.model import IlpProblem, IlpResult, Status
from repro.ilp.presolve import (
    PresolveInfo,
    collapse_symmetric,
    expand_solution,
    presolve as run_presolve,
)

__all__ = ["SolveInfo", "solve_ilp", "solve_ilp_info"]

#: Node budget for the symmetry-collapsed incumbent pre-solve; the collapsed
#: model is strictly smaller, so a small budget is enough and a blown budget
#: just means "no warm start".
_COLLAPSE_NODE_LIMIT = 200


@dataclass
class SolveInfo:
    """Telemetry for one :func:`solve_ilp_info` call.

    Attributes:
        solves: branch & bound runs, counting the symmetry-collapsed
            warm-start pre-solve (0 when presolve settled the model).
        wall_s: wall time spent in those runs.
        presolve: what the presolve pass did, or None when disabled.
        timed_out: the solve was cut short by ``timeout_s``, so its answer
            is declared rather than proven.
    """

    solves: int = 0
    wall_s: float = 0.0
    presolve: PresolveInfo | None = None
    timed_out: bool = False

    def run(self, problem: IlpProblem, **kwargs) -> IlpResult:
        """One timed :func:`solve_bb` call, folded into the record."""
        started = time.perf_counter()
        result = solve_bb(problem, **kwargs)
        self.solves += 1
        self.wall_s += time.perf_counter() - started
        self.timed_out = self.timed_out or result.timed_out
        return result


def _warm_start(
    problem: IlpProblem,
    info: SolveInfo,
    warm_start: tuple[Fraction, ...] | None,
) -> tuple[Fraction, ...] | None:
    """A warm-start incumbent for the branch & bound.

    A caller-supplied candidate wins; otherwise, when presolve found
    interchangeable variables, solve the symmetry-collapsed model (strictly
    smaller) and expand its solution.  The expansion is only used after it
    verifies against the *original* model, and only ever as an incumbent
    bound — the full model is still solved to optimality.
    """
    if warm_start is not None:
        return warm_start
    if info.presolve is None or not info.presolve.symmetry_classes:
        return None
    collapse = collapse_symmetric(problem, info.presolve.symmetry_classes)
    if collapse is None or collapse.problem.num_vars >= problem.num_vars:
        return None
    reduced = info.run(collapse.problem, node_limit=_COLLAPSE_NODE_LIMIT)
    if not reduced.is_optimal or reduced.limit_hit:
        return None
    expanded = expand_solution(collapse, reduced.values)
    if not problem.is_feasible_point(expanded):
        return None
    return expanded


def solve_ilp_info(
    problem: IlpProblem,
    *,
    presolve: bool = True,
    warm_start: tuple[Fraction, ...] | None = None,
    timeout_s: float | None = None,
) -> tuple[IlpResult, SolveInfo]:
    """Solve an ILP exactly and report per-solve telemetry.

    Args:
        problem: the model (left untouched; presolve works on a copy).
        presolve: run the reduction pass before the branch & bound.
        warm_start: a candidate point (full variable space) used as the
            starting incumbent when feasible.
        timeout_s: wall-clock budget for the branch & bound; a solve cut
            short reports ``timed_out`` and its answer is declared, not
            proven.
    """
    info = SolveInfo()
    reduced = problem
    if presolve:
        reduced, pinfo = run_presolve(problem)
        info.presolve = pinfo
        if pinfo.infeasible:
            return IlpResult(Status.INFEASIBLE), info
    incumbent = _warm_start(reduced, info, warm_start)
    result = info.run(
        reduced, incumbent_values=incumbent, time_limit_s=timeout_s
    )
    verify_integral_solution(problem, result)
    return result, info


def solve_ilp(
    problem: IlpProblem,
    *,
    presolve: bool = True,
    warm_start: tuple[Fraction, ...] | None = None,
    timeout_s: float | None = None,
) -> IlpResult:
    """Solve an ILP exactly (telemetry discarded)."""
    result, _ = solve_ilp_info(
        problem,
        presolve=presolve,
        warm_start=warm_start,
        timeout_s=timeout_s,
    )
    return result
