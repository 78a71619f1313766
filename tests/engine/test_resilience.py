"""Resilience layer: deadlines, degradation, chaos runs.

The contract under test: whatever faults the chaos harness injects on the
recoverable paths, ``run_synthesis`` completes with a network that is
simulation-equivalent to its source and lint-clean, and every cone that
could not be synthesized is listed as degraded (one-to-one fallback).
Without injection the resilience layer must be invisible: zero degraded
cones and bit-identical output.
"""

from __future__ import annotations

import time

import pytest

from repro.benchgen.paper_examples import motivational_network
from repro.benchgen.random_logic import random_logic_network
from repro.core.synthesis import SynthesisOptions
from repro.core.verify import verify_threshold_network
from repro.engine.resilience import (
    Deadline,
    cone_subnetwork,
    fallback_cone_gates,
)
from repro.engine.scheduler import preserved_set, run_synthesis
from repro.errors import DeadlineExceeded, SynthesisError
from repro.faults.injector import CHAOS_ENV
from repro.lint.diagnostics import LintOptions
from repro.lint.runner import run_lint
from repro.network.scripts import prepare_tels


def _source():
    return random_logic_network(
        "resil", num_inputs=8, num_outputs=3, num_nodes=14, seed=11
    )


def _check(source, result, psi=3):
    """Every resilient run must stay equivalent and lint-clean."""
    assert verify_threshold_network(source, result.network)
    lint = run_lint(result.network, LintOptions(psi=psi), source=source)
    assert lint.violations == 0


class TestDeadline:
    def test_after_none_is_unbudgeted(self):
        assert Deadline.after(None) is None

    def test_fresh_deadline_has_budget(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired
        deadline.check("anything")  # must not raise

    def test_expired_deadline_raises_with_context(self):
        deadline = Deadline(0.0)
        time.sleep(0.001)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="during cone 'z'"):
            deadline.check("cone 'z'")


class TestFallback:
    def test_fallback_gates_cover_the_cone(self):
        source = motivational_network()
        net = prepare_tels(source)
        preserved = preserved_set(net, preserve_sharing=True)
        root = next(o for o in net.outputs if net.has_node(o))
        options = SynthesisOptions(psi=3)
        gates, discovered = fallback_cone_gates(
            net, root, preserved, options
        )
        names = {g.name for g in gates}
        assert root in names
        for gate in gates:
            assert len(gate.inputs) <= options.psi
            if gate.name != root:
                assert gate.name.startswith(f"{root}$f")
        for signal in discovered:
            assert net.has_node(signal)

    def test_cone_subnetwork_stops_at_boundaries(self):
        net = prepare_tels(motivational_network())
        preserved = preserved_set(net, preserve_sharing=True)
        root = next(o for o in net.outputs if net.has_node(o))
        cone, discovered = cone_subnetwork(net, root, preserved)
        assert list(cone.outputs) == [root]
        for signal in cone.inputs:
            assert (
                net.is_input(signal)
                or signal in preserved
                or not net.has_node(signal)
            )
        assert set(discovered) <= set(cone.inputs)


class TestDeadlineDegradation:
    def test_tiny_per_cone_deadline_degrades_everything(self):
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, deadline_per_cone_s=1e-6)
        result = run_synthesis(net, options)
        report = result.report
        assert report.degraded_cones == len(result.trace.tasks)
        assert report.degraded_cones > 0
        assert all(d.reason == "deadline" for d in report.degraded)
        assert {m.task_id for m in result.trace.tasks if m.degraded} == {
            d.task_id for d in report.degraded
        }
        _check(source, result)

    def test_tiny_total_deadline_degrades_everything(self):
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, deadline_total_s=1e-9)
        result = run_synthesis(net, options)
        report = result.report
        assert report.degraded_cones > 0
        assert all(d.reason == "total-deadline" for d in report.degraded)
        _check(source, result)

    def test_strict_synthesis_raises_instead_of_degrading(self):
        net = prepare_tels(_source())
        options = SynthesisOptions(
            psi=3, deadline_per_cone_s=1e-6, strict_synthesis=True
        )
        with pytest.raises(SynthesisError, match="strict synthesis"):
            run_synthesis(net, options)

    def test_degraded_network_matches_one_to_one_area_bound(self):
        """A fully degraded run is exactly the per-cone one-to-one fallback,
        so it still respects the fanin bound everywhere."""
        net = prepare_tels(_source())
        options = SynthesisOptions(psi=3, deadline_per_cone_s=1e-6)
        result = run_synthesis(net, options)
        for gate in result.network.gates():
            assert len(gate.inputs) <= options.psi


class TestChaosEndToEnd:
    def test_combined_chaos_differential(self, tmp_path, monkeypatch):
        """The acceptance scenario: cache write faults plus torn cache
        lines, and the run still completes with a verified, lint-clean
        network."""
        source = _source()
        net = prepare_tels(source)
        monkeypatch.setenv(CHAOS_ENV, "cache=0.3,cache-corrupt=0.3:5")
        options = SynthesisOptions(psi=3)
        result = run_synthesis(
            net, options, cache_dir=str(tmp_path / "cache")
        )
        _check(source, result)
        assert {d.reason for d in result.report.degraded} <= {"deadline"}

    def test_no_chaos_means_no_degradation(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        source = _source()
        net = prepare_tels(source)
        result = run_synthesis(net, SynthesisOptions(psi=3))
        assert result.report.degraded_cones == 0
        assert result.trace.retries == 0
        _check(source, result)
