"""Presolve layer: model reductions applied before the solver runs.

Every reduction here is *exactness-preserving* for minimization over
``x >= 0``: the reduced problem has the same feasible set and the same
optimal objective as the input, so the solver may consume the reduced
model and its answer maps back unchanged.  Three reductions are applied:

* **duplicate elimination** — syntactically identical rows collapse to one;
* **dominated-constraint elimination** — over ``x >= 0``, a row
  ``a.x >= b`` is implied by ``a'.x >= b'`` whenever ``a >= a'``
  componentwise and ``b <= b'`` (and dually for ``<=`` rows); implied rows
  are dropped.  This is the generalization of the paper's "redundant
  constraint elimination" from the ON/OFF-cube level down to arbitrary
  rows;
* **bound consolidation** — all singleton rows on one variable (the
  ``max_weight`` box constraints of the threshold ILP) merge into the
  single tightest pair, and an empty box (``ub < lb`` or ``ub < 0``) is
  reported as infeasible without touching a solver.

On top of the row reductions, :func:`symmetry_classes` detects
*interchangeable variables* — columns whose swap maps the (objective,
constraint-multiset) pair onto itself.  Interchangeable inputs are
ubiquitous in the Fig. 6 ILPs (any symmetric pair of the underlying
function produces one).  :func:`collapse_symmetric` rewrites the model
with one weight variable per class (each row coefficient becomes the class
sum, which is exact when all members share one value), and
:func:`expand_solution` maps a reduced solution back to the full variable
space.  The collapsed model *restricts* the search to equal weights within
a class, so the solver stack uses its (verified) solution as a warm-start
incumbent rather than as the final answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.ilp.model import Constraint, IlpProblem, Sense


@dataclass(frozen=True)
class PresolveInfo:
    """What one presolve pass did to a model."""

    rows_in: int = 0
    rows_out: int = 0
    duplicates_removed: int = 0
    dominated_removed: int = 0
    bounds_merged: int = 0
    symmetry_classes: tuple[tuple[int, ...], ...] = ()
    infeasible: bool = False

    @property
    def rows_removed(self) -> int:
        return self.rows_in - self.rows_out

    @property
    def collapsible_vars(self) -> int:
        """Variables a symmetric collapse would eliminate."""
        return sum(len(c) - 1 for c in self.symmetry_classes)


@dataclass(frozen=True)
class SymmetryCollapse:
    """A collapsed model plus the map back to the full variable space."""

    problem: IlpProblem
    #: representative (reduced) variable index for each original variable.
    var_map: tuple[int, ...]
    num_original_vars: int


def _row_key(con: Constraint) -> tuple:
    return (con.coefficients, con.sense, con.rhs)


def _dominates(keeper: Constraint, candidate: Constraint) -> bool:
    """True when ``keeper`` implies ``candidate`` for every ``x >= 0``."""
    if keeper.sense is not candidate.sense:
        return False
    if keeper.sense is Sense.GE:
        # keeper: a'.x >= b'; candidate: a.x >= b with a >= a', b <= b'.
        return candidate.rhs <= keeper.rhs and all(
            c >= k for c, k in zip(candidate.coefficients, keeper.coefficients)
        )
    if keeper.sense is Sense.LE:
        return candidate.rhs >= keeper.rhs and all(
            c <= k for c, k in zip(candidate.coefficients, keeper.coefficients)
        )
    return False  # EQ rows are only deduplicated


def _singleton_var(con: Constraint) -> int | None:
    """The variable index of a single-nonzero-coefficient row, or None."""
    found = None
    for j, c in enumerate(con.coefficients):
        if c != 0:
            if found is not None:
                return None
            found = j
    return found


def presolve(problem: IlpProblem) -> tuple[IlpProblem, PresolveInfo]:
    """Reduce a model; returns the reduced problem and what was done.

    The reduced problem shares ``num_vars``/``objective``/``integer`` with
    the input — only the constraint list shrinks — so solutions need no
    re-mapping.  ``info.infeasible`` is set when a row (or a merged bound
    box) can never hold over ``x >= 0``; the constraint set is returned
    untouched in that case so an exact solver can still produce its own
    certificate if the caller prefers.
    """
    rows_in = len(problem.constraints)
    duplicates = 0
    dominated = 0
    bounds_merged = 0

    # 1. Trivial infeasibility: an all-zero row with an unsatisfiable rhs,
    #    or a row that cannot hold for any x >= 0.
    for con in problem.constraints:
        if all(c == 0 for c in con.coefficients):
            zero = Fraction(0)
            ok = con.evaluate([zero] * problem.num_vars)
            if not ok:
                return problem, PresolveInfo(
                    rows_in=rows_in, rows_out=rows_in, infeasible=True
                )
        elif con.sense is Sense.LE and con.rhs < 0 and all(
            c >= 0 for c in con.coefficients
        ):
            # Nonnegative combination of nonnegative variables <= negative.
            return problem, PresolveInfo(
                rows_in=rows_in, rows_out=rows_in, infeasible=True
            )

    # 2. Duplicate elimination (order-preserving).
    seen: set[tuple] = set()
    rows: list[Constraint] = []
    for con in problem.constraints:
        key = _row_key(con)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        rows.append(con)

    # 3. Singleton-bound consolidation: keep only the tightest upper and
    #    lower bound row per variable.
    best_ub: dict[int, Constraint] = {}
    best_lb: dict[int, Constraint] = {}
    others: list[Constraint] = []
    order: list[Constraint] = []
    for con in rows:
        var = _singleton_var(con)
        if var is None or con.sense is Sense.EQ:
            others.append(con)
            order.append(con)
            continue
        coef = con.coefficients[var]
        # Normalize to x_var (sense) rhs/coef; a negative coefficient flips
        # the sense, which the generic dominance pass below already handles —
        # keep those rows out of the merge to stay simple.
        if coef < 0:
            others.append(con)
            order.append(con)
            continue
        bound = con.rhs / coef
        if con.sense is Sense.LE:
            held = best_ub.get(var)
            if held is None:
                best_ub[var] = con
                order.append(con)
            else:
                bounds_merged += 1
                if bound < held.rhs / held.coefficients[var]:
                    best_ub[var] = con
                    order[order.index(held)] = con
        else:
            held = best_lb.get(var)
            if held is None:
                best_lb[var] = con
                order.append(con)
            else:
                bounds_merged += 1
                if bound > held.rhs / held.coefficients[var]:
                    best_lb[var] = con
                    order[order.index(held)] = con
    for var, ub_con in best_ub.items():
        ub = ub_con.rhs / ub_con.coefficients[var]
        if ub < 0:
            return problem, PresolveInfo(
                rows_in=rows_in, rows_out=rows_in, infeasible=True
            )
        lb_con = best_lb.get(var)
        if lb_con is not None:
            lb = lb_con.rhs / lb_con.coefficients[var]
            if lb > ub:
                return problem, PresolveInfo(
                    rows_in=rows_in, rows_out=rows_in, infeasible=True
                )
    rows = order

    # 4. Dominated-row elimination (quadratic scan; models here are small).
    kept: list[Constraint] = []
    for i, con in enumerate(rows):
        implied = False
        for k, other in enumerate(rows):
            if k == i or _row_key(other) == _row_key(con):
                continue
            if _dominates(other, con):
                # Break mutual-domination ties by keeping the earlier row.
                if _dominates(con, other) and k > i:
                    continue
                implied = True
                break
        if implied:
            dominated += 1
        else:
            kept.append(con)

    reduced = IlpProblem(
        num_vars=problem.num_vars,
        objective=list(problem.objective),
        constraints=kept,
        integer=list(problem.integer),
        names=list(problem.names),
    )
    info = PresolveInfo(
        rows_in=rows_in,
        rows_out=len(kept),
        duplicates_removed=duplicates,
        dominated_removed=dominated,
        bounds_merged=bounds_merged,
        symmetry_classes=symmetry_classes(reduced),
    )
    return reduced, info


def symmetry_classes(problem: IlpProblem) -> tuple[tuple[int, ...], ...]:
    """Classes of interchangeable variables (size >= 2 only).

    Variables *i* and *j* are interchangeable when swapping columns *i* and
    *j* maps the constraint multiset onto itself and fixes the objective —
    the model cannot tell the two variables apart, so any solution stays
    feasible under the swap.
    """
    n = problem.num_vars
    if n < 2:
        return ()
    rows = [
        (con.coefficients, con.sense, con.rhs) for con in problem.constraints
    ]
    # Cheap signature: a variable's multiset of (coefficient, rest-of-row
    # fingerprint ignoring the candidate pair) would be exact; sorting the
    # column alone is a sound pre-filter.
    column: list[tuple] = []
    for j in range(n):
        column.append(
            (
                problem.objective[j],
                problem.integer[j],
                tuple(sorted(coeffs[j] for coeffs, _, _ in rows)),
            )
        )
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def swapped_rows(i: int, j: int) -> list[tuple]:
        out = []
        for coeffs, sense, rhs in rows:
            swapped = list(coeffs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append((tuple(swapped), sense, rhs))
        return out

    row_multiset = sorted(rows, key=repr)
    for i in range(n):
        for j in range(i + 1, n):
            if column[i] != column[j]:
                continue
            if find(i) == find(j):
                continue
            if sorted(swapped_rows(i, j), key=repr) == row_multiset:
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j)
    return tuple(
        tuple(members) for members in groups.values() if len(members) >= 2
    )


def collapse_symmetric(
    problem: IlpProblem,
    classes: tuple[tuple[int, ...], ...] | None = None,
) -> SymmetryCollapse | None:
    """Collapse each interchangeable class into one weight variable.

    Returns None when there is nothing to collapse.  The collapsed model
    forces equal values within a class (each row coefficient for the class
    variable is the class sum), so it is a *restriction*: a collapsed
    optimum expands to a feasible point of the original model, but an
    asymmetric original optimum can in principle be smaller — which is why
    the solver stack treats the expansion as a warm-start incumbent.
    """
    if classes is None:
        classes = symmetry_classes(problem)
    if not classes:
        return None
    n = problem.num_vars
    rep_of: dict[int, int] = {}
    for members in classes:
        for m in members:
            rep_of[m] = members[0]
    reps = [j for j in range(n) if rep_of.get(j, j) == j]
    slot = {j: s for s, j in enumerate(reps)}
    var_map = tuple(slot[rep_of.get(j, j)] for j in range(n))

    def fold(values) -> list[Fraction]:
        out = [Fraction(0)] * len(reps)
        for j, value in enumerate(values):
            out[var_map[j]] += value
        return out

    reduced = IlpProblem(
        num_vars=len(reps),
        objective=fold(problem.objective),
        integer=[problem.integer[j] for j in reps],
        names=[problem.names[j] for j in reps],
    )
    for con in problem.constraints:
        reduced.add_constraint(fold(con.coefficients), con.sense, con.rhs)
    # Folding can create duplicate rows; drop them.
    reduced, _ = presolve(reduced)
    return SymmetryCollapse(
        problem=reduced, var_map=var_map, num_original_vars=n
    )


def expand_solution(
    collapse: SymmetryCollapse, values: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Map a collapsed solution back to the full variable space."""
    return tuple(
        values[collapse.var_map[j]]
        for j in range(collapse.num_original_vars)
    )
