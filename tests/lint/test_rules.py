"""Per-rule positive/negative fixtures for the lint rule registry.

Each rule gets (at least) one network that trips it and one that is clean
under it, run through the shared :func:`run_lint` entry so selection,
sorting, and severity wiring are exercised alongside the check itself.
"""

from __future__ import annotations

import pytest

from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.lint.diagnostics import LintOptions, Severity
from repro.lint.rules import RULE_REGISTRY, registered_rules
from repro.lint.runner import run_lint


def gate(
    name: str,
    inputs: tuple[str, ...],
    weights: tuple[int, ...],
    threshold: int,
    delta_on: int = 0,
    delta_off: int = 1,
) -> ThresholdGate:
    return ThresholdGate(
        name,
        inputs,
        WeightThresholdVector(weights, threshold),
        delta_on,
        delta_off,
    )


def raw_gate(
    name: str,
    inputs: tuple[str, ...],
    weights: tuple[int, ...],
    threshold: int,
) -> ThresholdGate:
    """A gate bypassing the constructor validation, for defensive rules."""
    g = object.__new__(ThresholdGate)
    object.__setattr__(g, "name", name)
    object.__setattr__(g, "inputs", inputs)
    object.__setattr__(
        g, "vector", WeightThresholdVector(weights, threshold)
    )
    object.__setattr__(g, "delta_on", 0)
    object.__setattr__(g, "delta_off", 1)
    return g


def network(
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    gates: tuple[ThresholdGate, ...],
    name: str = "t",
) -> ThresholdNetwork:
    net = ThresholdNetwork(name)
    for pi in inputs:
        net.add_input(pi)
    for po in outputs:
        net.add_output(po)
    for g in gates:
        net.add_gate(g)
    return net


def and2(name: str, a: str = "a", b: str = "b") -> ThresholdGate:
    return gate(name, (a, b), (1, 1), 2)


def rule_ids(report, rule_id: str):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


CLEAN = network(("a", "b"), ("y",), (and2("y"),))


class TestRegistry:
    def test_catalog_is_nonempty_and_unique(self):
        rules = registered_rules()
        ids = [r.rule_id for r in rules]
        assert len(ids) == len(set(ids))
        assert any(i.startswith("TLS") for i in ids)
        assert any(i.startswith("TLM") for i in ids)
        assert any(i.startswith("TLP") for i in ids)

    def test_rule_selection_by_prefix(self):
        report = run_lint(CLEAN, LintOptions(rules=("TLS",)))
        assert all(r.startswith("TLS") for r in report.rules_run)
        report = run_lint(CLEAN, LintOptions(rules=("TLM101",)))
        assert report.rules_run == ("TLM101",)

    def test_clean_network_is_clean(self):
        report = run_lint(CLEAN, LintOptions(psi=3))
        assert report.is_clean
        assert report.exit_code() == 0
        assert report.gates_checked == 1


class TestStructuralRules:
    def test_tls001_cycle_fires(self):
        net = network(
            ("a",),
            ("y",),
            (
                gate("y", ("a", "g2"), (1, 1), 2),
                gate("g2", ("y",), (1,), 1),
            ),
        )
        report = run_lint(net)
        found = rule_ids(report, "TLS001")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "g2" in found[0].message and "y" in found[0].message

    def test_tls001_clean_on_dag(self):
        assert not rule_ids(run_lint(CLEAN), "TLS001")

    def test_tls002_dangling_fanin(self):
        net = network(("a",), ("y",), (gate("y", ("a", "ghost"), (1, 1), 2),))
        found = rule_ids(run_lint(net), "TLS002")
        assert len(found) == 1
        assert found[0].net == "ghost"
        assert found[0].severity is Severity.ERROR

    def test_tls003_undriven_output(self):
        net = network(("a", "b"), ("y", "z"), (and2("y"),))
        found = rule_ids(run_lint(net), "TLS003")
        assert len(found) == 1
        assert found[0].net == "z"

    def test_tls003_output_may_be_an_input(self):
        net = network(("a", "b"), ("a",), ())
        assert not rule_ids(run_lint(net), "TLS003")

    def test_tls004_unreachable_gate(self):
        net = network(
            ("a", "b"), ("y",), (and2("y"), and2("dead"))
        )
        found = rule_ids(run_lint(net), "TLS004")
        assert [d.gate for d in found] == ["dead"]
        assert found[0].severity is Severity.WARNING

    def test_tls005_fanin_overflow_needs_psi(self):
        net = network(
            ("a", "b", "c", "d"),
            ("y",),
            (gate("y", ("a", "b", "c", "d"), (1, 1, 1, 1), 4),),
        )
        assert not rule_ids(run_lint(net), "TLS005")  # psi unknown
        found = rule_ids(run_lint(net, LintOptions(psi=3)), "TLS005")
        assert len(found) == 1
        assert "fanin 4" in found[0].message
        assert not rule_ids(run_lint(net, LintOptions(psi=4)), "TLS005")

    def test_tls006_duplicate_body_is_note(self):
        net = network(
            ("a", "b"), ("y", "z"), (and2("y"), and2("z"))
        )
        found = rule_ids(run_lint(net), "TLS006")
        assert len(found) == 1
        assert found[0].severity is Severity.NOTE
        assert found[0].gate == "z"

    def test_tls007_unused_input(self):
        net = network(("a", "b", "c"), ("y",), (and2("y"),))
        found = rule_ids(run_lint(net), "TLS007")
        assert [d.net for d in found] == ["c"]
        assert found[0].severity is Severity.NOTE

    def test_tls008_duplicate_fanin_via_raw_gate(self):
        net = network(
            ("a",), ("y",), (raw_gate("y", ("a", "a"), (1, 1), 2),)
        )
        # Restrict to the structural rule: TLM102's local_function()
        # legitimately refuses a gate with duplicate variable names.
        found = rule_ids(run_lint(net, LintOptions(rules=("TLS008",))), "TLS008")
        assert len(found) == 1
        assert found[0].net == "a"


class TestSemanticRules:
    def test_tlm101_stale_delta_on(self):
        # AND2 <1,1;2>: tightest ON vector sums to exactly T (margin 0).
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (1, 1), 2, 2, 1),)
        )
        found = rule_ids(run_lint(net), "TLM101")
        assert len(found) == 1
        assert "delta_on=2" in found[0].message
        assert found[0].severity is Severity.ERROR

    def test_tlm101_stale_delta_off(self):
        # OFF side: a=1,b=0 sums to 1, only 1 below T=2, claiming 3.
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (1, 1), 2, 0, 3),)
        )
        found = rule_ids(run_lint(net), "TLM101")
        assert len(found) == 1
        assert "delta_off=3" in found[0].message

    def test_tlm101_honest_margins_clean(self):
        # <2,2;4> with delta_on=0 delta_off=2: both margins hold.
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (2, 2), 4, 0, 2),)
        )
        assert not rule_ids(run_lint(net), "TLM101")

    def test_tlm102_zero_weight(self):
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (1, 0), 1),)
        )
        found = rule_ids(run_lint(net), "TLM102")
        assert any("weight 0" in d.message for d in found)

    def test_tlm102_dead_input(self):
        # b's weight can never flip the outcome: T=1 and w_a=2 dominates.
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (2, 1), 4),)
        )
        found = rule_ids(run_lint(net), "TLM102")
        assert found  # function is constant 0: both inputs are absent

    def test_tlm102_sign_flip(self):
        # NOR-like gate written with a positive weight: <1,-1;0> is
        # positive in nothing... construct an explicit contradiction:
        # f = a' (negative unate in a) but weight +1.
        net = network(
            ("a",), ("y",), (gate("y", ("a",), (-1,), 0),)
        )
        assert not rule_ids(run_lint(net), "TLM102")  # consistent
        net_bad = network(
            ("a",), ("y",), (raw_gate("y", ("a",), (1,), 0),)
        )
        # <1;0>: constant-1 regardless of a — 'a' is absent, so TLM102
        # reports the redundant connection.
        found = rule_ids(run_lint(net_bad), "TLM102")
        assert found

    def test_tlm103_constant_gates(self):
        always = network(
            ("a",), ("y",), (gate("y", ("a",), (1,), 0),)
        )
        found = rule_ids(run_lint(always), "TLM103")
        assert len(found) == 1
        assert "constant 1" in found[0].message
        never = network(
            ("a",), ("y",), (gate("y", ("a",), (1,), 5),)
        )
        found = rule_ids(run_lint(never), "TLM103")
        assert "constant 0" in found[0].message

    def test_tlm103_negative_weights_use_positive_form(self):
        # <-1;0> == a' has T_pos = 1, inside [1, 1]: clean.
        net = network(("a",), ("y",), (gate("y", ("a",), (-1,), 0),))
        assert not rule_ids(run_lint(net), "TLM103")

    def test_tlm103_skips_constant_gates_by_design(self):
        net = network((), ("y",), (gate("y", (), (), 0),))
        assert not rule_ids(run_lint(net), "TLM103")

    def test_tlm104_vacuous_delta_off(self):
        net = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (1, 1), 2, 0, 0),)
        )
        found = rule_ids(run_lint(net), "TLM104")
        assert len(found) == 1
        assert found[0].severity is Severity.NOTE

    def test_tlm105_needs_source(self):
        report = run_lint(CLEAN)
        assert "TLM105" not in report.rules_run

    def test_tlm105_functional_mismatch(self):
        from repro.io.blif import parse_blif

        source = parse_blif(
            ".model s\n.inputs a b\n.outputs y\n"
            ".names a b y\n11 1\n.end\n"
        )
        # OR gate instead of AND: disagrees on a=1,b=0.
        wrong = network(
            ("a", "b"), ("y",), (gate("y", ("a", "b"), (1, 1), 1),)
        )
        report = run_lint(wrong, source=source)
        found = rule_ids(report, "TLM105")
        assert len(found) == 1
        assert "counterexample" in found[0].message
        right = network(("a", "b"), ("y",), (and2("y"),))
        assert not rule_ids(run_lint(right, source=source), "TLM105")


def lone(g: ThresholdGate) -> ThresholdNetwork:
    """A one-gate network: the gate's fanins in, the gate out."""
    return network(g.inputs, (g.name,), (g,))


class TestLintGates:
    """Gate-local rules through ``run_lint`` over one-gate networks."""

    def test_clean_gates(self):
        assert run_lint(lone(and2("y")), LintOptions(psi=3)).is_clean

    def test_fanin_overflow_and_margin(self):
        wide = gate("wide", ("a", "b", "c", "d"), (1, 1, 1, 1), 4)
        stale = gate("stale", ("a", "b"), (1, 1), 2, 2, 1)
        assert rule_ids(run_lint(lone(wide), LintOptions(psi=3)), "TLS005")
        assert rule_ids(run_lint(lone(stale), LintOptions(psi=3)), "TLM101")

    def test_rule_filter(self):
        stale = lone(gate("stale", ("a", "b"), (1, 1), 2, 2, 1))
        report = run_lint(stale, LintOptions(psi=3, rules=("TLS005",)))
        assert report.diagnostics == ()

    def test_wide_gates_skip_enumeration(self):
        wide = gate(
            "w",
            tuple(f"x{i}" for i in range(18)),
            tuple([1] * 18),
            18,
            5,
            1,
        )
        # 2**18 points would be enumerated otherwise; the cap skips them.
        report = run_lint(lone(wide), LintOptions(max_enumeration_fanin=16))
        assert not rule_ids(report, "TLM101")


class TestReportShape:
    def test_diagnostics_sorted_errors_first(self):
        net = network(
            ("a", "b", "c"),
            ("y",),
            (
                gate("y", ("a", "ghost"), (1, 1), 2),  # TLS002 error
                and2("dead"),  # TLS004 warning
            ),
        )
        report = run_lint(net)
        ranks = [d.severity.rank for d in report.diagnostics]
        assert ranks == sorted(ranks, reverse=True)

    def test_exit_code_strict_escalates_notes(self):
        net = network(("a", "b", "c"), ("y",), (and2("y"),))  # TLS007 note
        report = run_lint(net)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_severity_registry_matches_diagnostics(self):
        for spec in registered_rules():
            assert spec.rule_id in RULE_REGISTRY
            assert spec.severity in (
                Severity.NOTE,
                Severity.WARNING,
                Severity.ERROR,
            )


@pytest.mark.parametrize(
    "rule_id",
    [r.rule_id for r in registered_rules() if r.rule_id != "TLP201"],
)
def test_every_rule_has_a_docstringed_description(rule_id):
    spec = RULE_REGISTRY[rule_id]
    assert len(spec.description) > 20
    assert spec.category in ("structure", "semantic", "parse", "analysis")


class TestGateModelRouting:
    """Gate-model-aware rules: TLM106 and the model-routed margin check."""

    @staticmethod
    def mt_gate(name: str = "y") -> ThresholdGate:
        from repro.core.threshold import MultiThresholdVector

        # <1, 1; 1, 2>: two-input XOR as a single multi-threshold gate.
        return ThresholdGate(
            name, ("a", "b"), MultiThresholdVector((1, 1), (1, 2)), 0, 1
        )

    def flash_lint(self, net):
        return run_lint(net, LintOptions(gate_model="flash"))

    def test_tlm106_silent_under_the_default_model(self):
        net = network(("a",), ("y",), (gate("y", ("a",), (9,), 5),))
        assert not rule_ids(run_lint(net), "TLM106")

    def test_tlm106_off_grid_weight(self):
        # |w| = 9 exceeds the 8 programmable levels of the flash device.
        net = network(("a",), ("y",), (gate("y", ("a",), (9,), 5),))
        found = rule_ids(self.flash_lint(net), "TLM106")
        assert len(found) == 1
        assert "off the device grid" in found[0].message
        assert found[0].severity is Severity.ERROR

    def test_tlm106_rejects_multi_threshold_gates(self):
        net = network(("a", "b"), ("y",), (self.mt_gate(),))
        found = rule_ids(self.flash_lint(net), "TLM106")
        assert len(found) == 1
        assert "single-threshold flash cell" in found[0].message

    def test_tlm106_drift_floor(self):
        # AND <1,1;2>: ON margin 0 < ceil(0.25 * 1) = 1.
        net = network(("a", "b"), ("y",), (and2("y"),))
        found = rule_ids(self.flash_lint(net), "TLM106")
        assert len(found) == 1
        assert "drift floor" in found[0].message

    def test_tlm106_clean_on_signed_off_gates(self):
        # <2, 2; 3>: margins (1, 1) cover the drift of w = 2.
        net = network(("a", "b"), ("y",), (gate("y", ("a", "b"), (2, 2), 3),))
        assert not rule_ids(self.flash_lint(net), "TLM106")

    def test_mt_gates_lint_clean_under_their_own_model(self):
        net = network(("a", "b"), ("y",), (self.mt_gate(),))
        report = run_lint(net, LintOptions(gate_model="multi-threshold"))
        assert report.violations == 0

    def test_mt_gates_skip_the_unateness_rule(self):
        # XOR is deliberately binate: TLM102 must not flag it.
        net = network(("a", "b"), ("y",), (self.mt_gate(),))
        assert not rule_ids(run_lint(net), "TLM102")

    def test_tlm103_mt_gate_with_unreachable_thresholds(self):
        from repro.core.threshold import MultiThresholdVector

        g = ThresholdGate(
            "y", ("a", "b"), MultiThresholdVector((1, 1), (5, 6)), 0, 0
        )
        net = network(("a", "b"), ("y",), (g,))
        found = rule_ids(run_lint(net), "TLM103")
        assert len(found) == 1
        assert "constant" in found[0].message

    def test_run_lint_threads_the_model(self):
        net = lone(gate("y", ("a",), (9,), 5))
        assert rule_ids(self.flash_lint(net), "TLM106")
        assert not rule_ids(run_lint(net), "TLM106")
