"""Integer linear programming substrate (the LP_SOLVE stand-in).

The threshold-identification step of TELS casts "is this unate function a
threshold function?" as a small ILP (Fig. 6 of the paper).  This package
provides:

* :mod:`repro.ilp.model` — a tiny declarative model (:class:`IlpProblem`);
* :mod:`repro.ilp.simplex` — an exact rational two-phase simplex;
* :mod:`repro.ilp.branch_bound` — branch & bound on top of the simplex;
* :mod:`repro.ilp.presolve` — exactness-preserving model reductions;
* :func:`repro.ilp.solve.solve_ilp` — presolve, then branch & bound, then
  verification of the answer against the original model.

The solver is exact (Fraction arithmetic, no tolerance tuning) and has no
dependencies, so every answer — feasible weights or "not threshold" — is
proven, not estimated.
"""

from repro.ilp.model import Constraint, IlpProblem, IlpResult, Sense, Status
from repro.ilp.solve import solve_ilp

__all__ = [
    "Constraint",
    "IlpProblem",
    "IlpResult",
    "Sense",
    "Status",
    "solve_ilp",
]
