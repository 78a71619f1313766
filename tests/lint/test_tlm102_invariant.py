"""The construction invariant the packed TLM102 check relies on.

A single-threshold gate computes a unate function whose phase in each
input is the sign of that input's weight.  TLM102 therefore only decides
*support* (one packed truth table) and never re-proves the sign.  This
enumerates every small gate and checks both halves against the exact
Shannon-cofactor reference, ``semantic_unateness``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.boolean.unate import Phase, semantic_unateness
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.lint.diagnostics import LintOptions
from repro.lint.rules import LintContext, check_gate_weight_signs

WEIGHTS = range(-3, 4)


def small_gates(fanin: int):
    """Every gate of this fanin, weights in [-3, 3], every threshold."""
    inputs = tuple("abc"[:fanin])
    for weights in itertools.product(WEIGHTS, repeat=fanin):
        lo = sum(w for w in weights if w < 0)
        hi = sum(w for w in weights if w > 0)
        for threshold in range(lo, hi + 2):
            yield ThresholdGate(
                "y", inputs, WeightThresholdVector(weights, threshold)
            )


def expected_messages(gate: ThresholdGate, phases) -> list[str]:
    """The reference TLM102 messages: zero weights, then absent inputs."""
    zero = [
        f"gate 'y' input {name!r} has weight 0 (dead input)"
        for name, w in zip(gate.inputs, gate.weights)
        if w == 0
    ]
    absent = [
        f"gate 'y' input {name!r} has weight {w} but the gate function "
        f"does not depend on it"
        for name, w, phase in zip(gate.inputs, gate.weights, phases)
        if w != 0 and phase is Phase.ABSENT
    ]
    return zero + absent


@pytest.mark.parametrize("fanin", range(4))
def test_packed_tlm102_matches_semantic_unateness(fanin):
    ctx = LintContext(network=ThresholdNetwork("t"), options=LintOptions())
    for gate in small_gates(fanin):
        phases = semantic_unateness(gate.local_function().cover).phases
        found = [d.message for d in check_gate_weight_signs(gate, 16, ctx)]
        assert found == expected_messages(gate, phases), gate.vector


@pytest.mark.parametrize("fanin", range(1, 4))
def test_weight_sign_sets_the_phase(fanin):
    for gate in small_gates(fanin):
        phases = semantic_unateness(gate.local_function().cover).phases
        for weight, phase in zip(gate.weights, phases):
            if weight > 0:
                assert phase in (Phase.POSITIVE, Phase.ABSENT), gate.vector
            elif weight < 0:
                assert phase in (Phase.NEGATIVE, Phase.ABSENT), gate.vector
            else:
                assert phase is Phase.ABSENT, gate.vector
