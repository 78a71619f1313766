"""Differential acceptance: synthesized networks must lint clean.

Mirrors ``tests/cache/test_differential.py``'s population — random logic
networks plus benchmark stand-ins, serial and parallel, cached and not —
and asserts the lint post-pass finds zero violations on every one.  A
violation here means the synthesizer emitted something its own static
verifier rejects, which is a bug in one or the other; either way it must
not ship silently.
"""

from __future__ import annotations

import re

import pytest

from repro.benchgen.random_logic import random_logic_network
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.lint.diagnostics import LintOptions
from repro.lint.runner import run_lint


def assert_lint_clean(report, network, source, psi):
    """The engine post-pass and a fresh full-rule run must both be clean."""
    assert report.lint is not None
    assert report.lint.violations == 0, report.lint.by_rule()
    fresh = run_lint(network, LintOptions(psi=psi), source=source)
    assert fresh.violations == 0, fresh.by_rule()
    assert "TLM105" in fresh.rules_run  # equivalence rule actually ran


class TestRandomNetworks:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks_lint_clean(self, seed):
        source = random_logic_network(
            f"lintrand{seed}",
            num_inputs=6,
            num_outputs=2,
            num_nodes=10,
            seed=seed,
        )
        options = SynthesisOptions(psi=3, seed=seed)
        network, report = synthesize_with_report(source, options)
        assert_lint_clean(report, network, source, psi=3)

    def test_cache_warm_run_lints_clean(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        source = random_logic_network(
            "lintwarm", num_inputs=6, num_outputs=2, num_nodes=12, seed=7
        )
        options = SynthesisOptions(psi=3, seed=0, delta_on=1, delta_off=1)
        synthesize_with_report(source, options, cache_dir=cache_dir)
        network, report = synthesize_with_report(
            source, options, cache_dir=cache_dir
        )
        assert_lint_clean(report, network, source, psi=3)


class TestBenchmarks:
    @pytest.mark.parametrize("name", ["cm152a", "cm85a", "cmb", "comp"])
    def test_benchmark_stand_ins_lint_clean(self, name):
        from repro.benchgen.extended import build_extended_benchmark
        from repro.network.scripts import prepare_tels

        source = build_extended_benchmark(name)
        options = SynthesisOptions(psi=3, seed=0)
        network, report = synthesize_with_report(
            prepare_tels(source), options
        )
        assert_lint_clean(report, network, source, psi=3)

    def test_wider_psi_also_clean(self):
        from repro.benchgen.extended import build_extended_benchmark
        from repro.network.scripts import prepare_tels

        source = build_extended_benchmark("cm85a")
        options = SynthesisOptions(psi=5, seed=0, delta_on=1)
        network, report = synthesize_with_report(
            prepare_tels(source), options
        )
        assert_lint_clean(report, network, source, psi=5)


class TestEngineWiring:
    def test_lint_off_leaves_report_empty(self):
        source = random_logic_network(
            "lintoff", num_inputs=5, num_outputs=2, num_nodes=8, seed=3
        )
        _, report = synthesize_with_report(
            source, SynthesisOptions(psi=3, lint=False)
        )
        assert report.lint is None
        assert report.trace.network_lint_violations is None

    def test_trace_summary_mentions_lint(self):
        source = random_logic_network(
            "lintsum", num_inputs=5, num_outputs=2, num_nodes=8, seed=4
        )
        _, report = synthesize_with_report(source, SynthesisOptions(psi=3))
        summary = report.trace.format_summary()
        assert "lint: 0 violations" in summary


def diagnostic_keys(report):
    """(rule_id, severity, gate, net, message) rows, TLS006 as classes.

    TLS006 names the first gate of each duplicate class in the network's
    gate order: cone order in the assembled network, topological order in
    a written file.  The classes themselves must agree.
    """
    rows = []
    classes: dict[str, set[str]] = {}
    for d in report.diagnostics:
        if d.rule_id == "TLS006":
            first = re.search(r"body of '(.+)' \(", d.message).group(1)
            classes.setdefault(first, {first}).add(d.gate)
        else:
            rows.append((d.rule_id, d.severity, d.gate, d.net, d.message))
    return rows, {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize(
    "name, psi, gate_model",
    [
        ("parmix", 9, "ltg"),
        ("parmix", 9, "multi-threshold"),
        ("parmix", 9, "flash"),
        ("cm152a", 3, "ltg"),
    ],
)
def test_engine_lint_equals_standalone_lint(name, psi, gate_model):
    """The engine's one lint pass is exactly what ``tels lint`` reports."""
    from repro.benchgen.extended import build_extended_benchmark
    from repro.io.thblif import parse_thblif, to_thblif
    from repro.network.scripts import prepare_tels

    source = prepare_tels(build_extended_benchmark(name))
    options = SynthesisOptions(psi=psi, seed=0, gate_model=gate_model)
    network, report = synthesize_with_report(source, options)
    standalone = run_lint(
        parse_thblif(to_thblif(network), validate=False),
        LintOptions(psi=psi, gate_model=gate_model),
    )
    assert diagnostic_keys(report.lint) == diagnostic_keys(standalone)
