"""Unit and fuzz tests for the TELS synthesis flow (Fig. 3)."""

import pytest

from repro.boolean.function import BooleanFunction
from repro.core.synthesis import (
    SynthesisOptions,
    synthesize,
    synthesize_with_report,
)
from repro.core.verify import verify_threshold_network
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork
from repro.network.scripts import prepare_tels, script_algebraic
from tests.conftest import random_network


class TestOptions:
    def test_psi_must_be_at_least_two(self):
        with pytest.raises(SynthesisError):
            SynthesisOptions(psi=1)

    def test_negative_deltas_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisOptions(delta_on=-1)

    def test_retired_max_attempts_rejected(self):
        with pytest.raises(TypeError, match="max_attempts"):
            SynthesisOptions(max_attempts=2)


class TestBasicSynthesis:
    def test_single_threshold_node(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a b + a c + b c"))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions(psi=3))
        assert th.num_gates == 1
        gate = th.gate("f")
        assert gate.vector.weights == (1, 1, 1)
        assert gate.vector.threshold == 2
        assert verify_threshold_network(net, th)

    def test_nonthreshold_node_split(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a b + c d"))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions(psi=4))
        assert th.num_gates >= 2  # must split; one LTG cannot do it
        assert verify_threshold_network(net, th)

    def test_binate_node_split(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", BooleanFunction.parse("a b' + a' b"))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions(psi=3))
        assert verify_threshold_network(net, th)
        # One AND part is folded into the root via Theorem 2: 2 gates.
        assert th.num_gates == 2

    def test_binate_split_without_theorem2(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", BooleanFunction.parse("a b' + a' b"))
        net.add_output("f")
        th = synthesize(
            net, SynthesisOptions(psi=3, apply_theorem2=False)
        )
        assert verify_threshold_network(net, th)
        assert th.num_gates == 3  # two AND parts + plain OR root

    def test_constant_output(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("k", BooleanFunction.constant(True))
        net.add_output("k")
        th = synthesize(net, SynthesisOptions())
        assert th.evaluate({"a": 0})["k"] is True

    def test_po_aliasing_pi(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_output("a")
        th = synthesize(net, SynthesisOptions())
        assert th.evaluate({"a": 1})["a"] is True

    def test_inverter_output(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("f", BooleanFunction.parse("a'"))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions())
        gate = th.gate("f")
        assert gate.vector.weights == (-1,)
        assert verify_threshold_network(net, th)

    def test_wide_and_cube_becomes_tree(self):
        net = BooleanNetwork()
        names = [f"x{i}" for i in range(7)]
        for n in names:
            net.add_input(n)
        net.add_node("f", BooleanFunction.parse(" ".join(names)))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions(psi=3))
        assert th.max_fanin() <= 3
        assert verify_threshold_network(net, th)

    def test_wide_or_becomes_tree(self):
        net = BooleanNetwork()
        names = [f"x{i}" for i in range(7)]
        for n in names:
            net.add_input(n)
        net.add_node("f", BooleanFunction.parse(" + ".join(names)))
        net.add_output("f")
        th = synthesize(net, SynthesisOptions(psi=3))
        assert th.max_fanin() <= 3
        assert verify_threshold_network(net, th)


class TestFaninRestriction:
    @pytest.mark.parametrize("psi", [2, 3, 4, 6])
    def test_every_gate_respects_psi(self, psi):
        for seed in (1, 2, 3):
            net = random_network(seed + 700)
            th = synthesize(net, SynthesisOptions(psi=psi, seed=seed))
            assert th.max_fanin() <= psi
            assert verify_threshold_network(net, th), (seed, psi)


class TestSharingPreservation:
    def test_fanout_node_becomes_shared_gate(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("shared", BooleanFunction.parse("a b"))
        net.add_node("f", BooleanFunction.parse("shared + c"))
        net.add_node("g", BooleanFunction.parse("shared + d"))
        net.add_output("f")
        net.add_output("g")
        th = synthesize(net, SynthesisOptions(psi=3))
        assert th.has_gate("shared")
        readers = [
            g.name for g in th.gates() if "shared" in g.inputs
        ]
        assert sorted(readers) == ["f", "g"]
        assert verify_threshold_network(net, th)

    def test_sharing_disabled_duplicates_logic(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("shared", BooleanFunction.parse("a b"))
        net.add_node("f", BooleanFunction.parse("shared + c"))
        net.add_node("g", BooleanFunction.parse("shared + d"))
        net.add_output("f")
        net.add_output("g")
        th = synthesize(
            net, SynthesisOptions(psi=3, preserve_sharing=False)
        )
        assert not th.has_gate("shared")
        assert verify_threshold_network(net, th)


class TestTheorem2Combining:
    def test_applied_and_counted(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d", "e"):
            net.add_input(name)
        # a b + a c + d e: split -> larger (ab+ac) threshold, theorem 2
        # absorbs the d e part through one weighted input.
        net.add_node("f", BooleanFunction.parse("a b + a c + d e"))
        net.add_output("f")
        th, report = synthesize_with_report(net, SynthesisOptions(psi=4))
        assert report.theorem2_applications >= 1
        assert verify_threshold_network(net, th)

    def test_disabled_by_option(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d", "e"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a b + a c + d e"))
        net.add_output("f")
        th, report = synthesize_with_report(
            net, SynthesisOptions(psi=4, apply_theorem2=False)
        )
        assert report.theorem2_applications == 0
        assert verify_threshold_network(net, th)


class TestDeterminism:
    def test_same_seed_same_network(self):
        net = random_network(801)
        a = synthesize(net, SynthesisOptions(psi=3, seed=5))
        b = synthesize(net, SynthesisOptions(psi=3, seed=5))
        assert a.num_gates == b.num_gates
        assert a.area() == b.area()
        assert {g.name for g in a.gates()} == {g.name for g in b.gates()}


class TestEquivalenceFuzz:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks(self, seed):
        net = random_network(seed + 900)
        for pipeline in (lambda n: n, script_algebraic, prepare_tels):
            prepared = pipeline(net.copy())
            th = synthesize(prepared, SynthesisOptions(psi=3, seed=seed))
            assert verify_threshold_network(net, th), seed

    def test_delta_variants(self):
        net = random_network(950)
        for delta_on in (0, 1, 2):
            th = synthesize(
                net, SynthesisOptions(psi=4, delta_on=delta_on)
            )
            assert verify_threshold_network(net, th), delta_on


class TestReport:
    def test_report_counts_consistent(self):
        net = random_network(970)
        th, report = synthesize_with_report(net, SynthesisOptions(psi=3))
        assert report.gates_emitted >= th.num_gates
        assert report.nodes_processed > 0
        assert report.checker is not None
        assert report.checker.stats.calls > 0
