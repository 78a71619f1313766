"""The solve layer: presolve, the exact branch & bound, and verification."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.errors import IlpError
from repro.ilp import solve as solve_mod
from repro.ilp.model import IlpProblem, IlpResult, Status
from repro.ilp.solve import solve_ilp, solve_ilp_info


def _simple_problem() -> IlpProblem:
    """min x0 + x1 s.t. x0 + x1 >= 3: optimum 3."""
    p = IlpProblem(num_vars=2, objective=[1, 1])
    p.add_constraint([1, 1], ">=", 3)
    return p


class TestDispatch:
    def test_exact_backend_trivial(self):
        r = solve_ilp(IlpProblem(num_vars=2, objective=[1, 1]))
        assert r.status is Status.OPTIMAL
        assert r.objective == 0

    def test_lp_feasible_ilp_infeasible_is_proved(self):
        # 3x == 1 has the LP point x = 1/3 but no integral one.
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([3], "==", 1)
        result = solve_ilp(p)
        assert result.status is Status.INFEASIBLE
        assert not result.limit_hit


class TestVerificationChain:
    def test_wrong_solver_point_is_rejected(self, monkeypatch):
        # An OPTIMAL point violating the original model never escapes.
        def bogus(problem, **kwargs):
            zeros = (Fraction(0),) * problem.num_vars
            return IlpResult(Status.OPTIMAL, Fraction(0), zeros)

        monkeypatch.setattr(solve_mod, "solve_bb", bogus)
        with pytest.raises(IlpError, match="violates"):
            solve_ilp(_simple_problem())

    def test_presolve_settles_infeasible_without_backends(self):
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 1], "<=", -1)
        result, info = solve_ilp_info(p)
        assert result.status is Status.INFEASIBLE
        assert info.presolve is not None and info.presolve.infeasible
        assert info.solves == 0

    def test_info_counts_solves_and_presolve(self):
        result, info = solve_ilp_info(_simple_problem())
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.solves >= 1
        assert info.wall_s >= 0.0
        assert info.presolve is not None
        assert not info.timed_out


class TestAgreement:
    def _random_problem(self, rng):
        n = rng.randint(1, 4)
        p = IlpProblem(
            num_vars=n, objective=[rng.randint(0, 4) for _ in range(n)]
        )
        for _ in range(rng.randint(1, 5)):
            p.add_constraint(
                [rng.randint(-3, 3) for _ in range(n)],
                rng.choice(["<=", ">=", "=="]),
                rng.randint(-4, 6),
            )
        return p

    def test_feasibility_agreement_fuzz(self):
        # The full pipeline (presolve, warm start, verification) agrees
        # with a bare branch & bound on the untouched model.
        rng = random.Random(0)
        limit_hits = 0
        for _ in range(120):
            p = self._random_problem(rng)
            bare = solve_ilp(p, presolve=False)
            full = solve_ilp(p)
            if bare.limit_hit or full.limit_hit:
                # Node budget exhausted: a declared (not proven)
                # infeasibility — the paper's Section V-E semantics — so
                # there is nothing to compare.
                limit_hits += 1
                continue
            assert bare.status == full.status
            if bare.status is Status.OPTIMAL:
                assert bare.objective == full.objective
        # The budget should only rarely trip on this distribution.
        assert limit_hits <= 6


def test_synthesis_never_imports_scipy():
    """The exact solver is the only solver: a flow that solves ILPs must
    not load scipy (checked in a fresh interpreter)."""
    code = (
        "import sys\n"
        "from repro.benchgen.extended import build_extended_benchmark\n"
        "from repro.core.synthesis import SynthesisOptions, "
        "synthesize_with_report\n"
        "from repro.network.scripts import prepare_tels\n"
        "net = prepare_tels(build_extended_benchmark('parmix'))\n"
        "_, report = synthesize_with_report(net, SynthesisOptions(psi=9))\n"
        "assert report.checker.stats.ilp_solved > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert out.stdout.strip() == "[]"
