"""The robustness contract: synthesized gates honor their delta margins.

Every gate TELS emits must satisfy the Eq. (1) tolerances: all true input
vectors reach ``T + delta_on`` and all false vectors stay at or below
``T - delta_off``.  This is the property that makes Fig. 11's failure-rate
behaviour possible, so it gets its own direct test.
"""

import pytest

from repro.analysis.redundancy import RemovalFinding, apply_removals
from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.core.mapping import one_to_one_map
from repro.core.optimize import peephole_optimize
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.core.twolevel import TwoLevelOptions, synthesize_two_level
from repro.experiments.flows import run_flows
from repro.network.network import BooleanNetwork
from repro.network.scripts import prepare_one_to_one
from tests.conftest import random_network


@pytest.mark.parametrize("delta_on", [0, 1, 2, 3])
def test_tels_gate_margins(delta_on):
    for seed in (0, 1):
        net = random_network(seed + 2100)
        th = synthesize(
            net, SynthesisOptions(psi=3, delta_on=delta_on, seed=seed)
        )
        for gate in th.gates():
            if gate.fanin == 0:
                continue  # constants have no weights to disturb
            on, off = gate.margins()
            if on is not None:
                assert on >= delta_on, (gate, on)
            if off is not None:
                assert off >= 1, (gate, off)  # delta_off = 1 default


@pytest.mark.parametrize("delta_on", [0, 2])
def test_one_to_one_gate_margins(delta_on):
    net = random_network(2150)
    prepared = prepare_one_to_one(net, max_fanin=3)
    th = one_to_one_map(prepared, delta_on=delta_on)
    for gate in th.gates():
        on, off = gate.margins()
        if on is not None:
            assert on >= delta_on, (gate, on)
        if off is not None:
            assert off >= 1, (gate, off)


def test_margins_bound_single_weight_perturbation():
    """A margin of m tolerates any single-weight disturbance below m (and
    below the OFF margin): the arithmetic behind Section VI-C."""
    net = random_network(2160)
    th = synthesize(net, SynthesisOptions(psi=3, delta_on=2))
    for gate in th.gates():
        if gate.fanin == 0:
            continue
        on, off = gate.margins()
        # With delta_on=2 and delta_off=1, any single weight moved by less
        # than min(on, off) cannot flip any vector of this gate.
        if on is not None and off is not None:
            assert min(on, off) >= 1


def test_deltas_recorded_on_gates():
    net = random_network(2170)
    th = synthesize(net, SynthesisOptions(psi=3, delta_on=2, delta_off=1))
    for gate in th.gates():
        assert gate.delta_on == 2
        assert gate.delta_off == 1


def _constant_network(value: bool) -> BooleanNetwork:
    net = BooleanNetwork()
    net.add_input("a")
    net.add_node("k", BooleanFunction.constant(value))
    net.add_output("k")
    return net


def _one_input_constant(value: bool, delta_on: int) -> ThresholdNetwork:
    """Output ``k`` is a one-input gate whose zero weight makes it constant."""
    net = ThresholdNetwork("fold")
    net.add_input("a")
    threshold = -delta_on if value else 1 + delta_on
    net.add_gate(
        ThresholdGate(
            "k", ("a",), WeightThresholdVector((0,), threshold), delta_on, 1
        )
    )
    net.add_output("k")
    return net


def _peephole(value: bool, delta_on: int) -> ThresholdNetwork:
    net = _one_input_constant(value, delta_on)
    peephole_optimize(net)
    return net


def _apply_constant_finding(value: bool, delta_on: int) -> ThresholdNetwork:
    finding = RemovalFinding(kind="constant-gate", gate="k", value=int(value))
    rewritten, applied = apply_removals(
        _one_input_constant(value, delta_on), [finding]
    )
    assert applied
    return rewritten


#: Every way a flow emits a zero-fanin constant gate for output ``k``.
CONSTANT_FLOWS = {
    "tels": lambda v, d: synthesize(
        _constant_network(v), SynthesisOptions(delta_on=d)
    ),
    "two-level": lambda v, d: synthesize_two_level(
        _constant_network(v), TwoLevelOptions(delta_on=d)
    ),
    "one-to-one": lambda v, d: one_to_one_map(_constant_network(v), delta_on=d),
    "peephole": _peephole,
    "analysis-apply": _apply_constant_finding,
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("flow", sorted(CONSTANT_FLOWS))
def test_constant_gate_honors_delta_on(flow, value):
    delta_on = 2
    th = CONSTANT_FLOWS[flow](value, delta_on)
    gate = th.gate("k")
    assert gate.fanin == 0
    assert th.evaluate({"a": 0})["k"] is value
    on, off = gate.margins()
    if value:
        assert off is None and on >= delta_on, gate
    else:
        assert on is None and off >= 1, gate


@pytest.mark.parametrize("value", [True, False])
def test_checker_constant_vector_honors_delta_on(value):
    checker = ThresholdChecker(delta_on=2)
    cover = BooleanFunction.parse("a + a'").cover
    if not value:
        cover = cover.complement()
    vector = checker.check(cover)
    on, off = vector.margins()
    if value:
        assert off is None and on >= 2
    else:
        assert on is None and off >= 1


@pytest.mark.parametrize("delta_on", [1, 2, 3])
def test_term1_flow_with_constant_gates_lints_clean(delta_on):
    # run_flows raises SynthesisError when the flow's lint post-pass finds
    # any violation; term1's TELS output contains constant-1 gates.
    result = run_flows("term1", psi=3, delta_on=delta_on, delta_off=1)
    constants = [
        g
        for g in result.tels.gates()
        if g.fanin == 0 and g.margins()[1] is None
    ]
    assert constants
    for gate in constants:
        assert gate.margins()[0] >= delta_on
