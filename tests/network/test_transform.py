"""Unit tests for the network restructuring transforms."""

import subprocess
import sys
from pathlib import Path

import repro
from repro.boolean.function import BooleanFunction
from repro.network.network import BooleanNetwork
from repro.network.simulate import equivalent_networks
from repro.network.transform import (
    collapse_network,
    decompose,
    divide_functions,
    eliminate,
    extract,
    extract_cubes,
    resubstitute,
    simplify,
    sweep,
)
from tests.conftest import random_network


class TestSweep:
    def test_folds_buffer(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("buf", BooleanFunction.parse("a"))
        net.add_node("f", BooleanFunction.parse("buf"))
        net.add_output("f")
        sweep(net)
        assert not net.has_node("buf")
        assert net.evaluate({"a": 1}) == {"f": True}

    def test_folds_inverter(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("inv", BooleanFunction.parse("a'"))
        net.add_node("f", BooleanFunction.parse("inv b"))
        net.add_output("f")
        sweep(net)
        assert not net.has_node("inv")
        assert net.evaluate({"a": 0, "b": 1}) == {"f": True}

    def test_propagates_constants(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("one", BooleanFunction.constant(True))
        net.add_node("f", BooleanFunction.parse("one a"))
        net.add_output("f")
        sweep(net)
        assert not net.has_node("one")
        assert net.evaluate({"a": 1}) == {"f": True}
        assert net.evaluate({"a": 0}) == {"f": False}

    def test_keeps_trivial_po_driver(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("f", BooleanFunction.parse("a'"))
        net.add_output("f")
        sweep(net)
        assert net.has_node("f")

    def test_removes_dangling(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("dead", BooleanFunction.parse("a'"))
        net.add_node("f", BooleanFunction.parse("a"))
        net.add_output("f")
        sweep(net)
        assert not net.has_node("dead")

    def test_equivalence_fuzz(self):
        for seed in range(15):
            net = random_network(seed)
            swept = net.copy()
            sweep(swept)
            assert equivalent_networks(net, swept), seed


class TestEliminate:
    def test_collapses_single_use_node(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("m", BooleanFunction.parse("a b"))
        net.add_node("f", BooleanFunction.parse("m + b"))
        net.add_output("f")
        eliminate(net, threshold=0)
        assert not net.has_node("m")
        assert net.evaluate({"a": 1, "b": 0}) == {"f": False}

    def test_preserves_po_nodes(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("f", BooleanFunction.parse("a"))
        net.add_output("f")
        eliminate(net, threshold=100)
        assert net.has_node("f")

    def test_keeps_high_value_shared_nodes(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("big", BooleanFunction.parse("a b + c d + a c"))
        users = []
        for i in range(4):
            users.append(
                net.add_node(f"u{i}", BooleanFunction.parse(f"big + {'abcd'[i]}"))
            )
            net.add_output(f"u{i}")
        eliminate(net, threshold=0)
        assert net.has_node("big")  # 4 users x 5 factored literals: keep

    def test_equivalence_fuzz(self):
        for seed in range(15):
            net = random_network(seed + 50)
            out = net.copy()
            eliminate(out, threshold=0)
            assert equivalent_networks(net, out), seed


class TestSimplify:
    def test_simplifies_redundant_cover(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", BooleanFunction.from_sop(["11", "10", "01"], ["a", "b"]))
        net.add_output("f")
        saved = simplify(net)
        assert saved > 0
        assert net.function("f").num_literals == 2  # a + b

    def test_equivalence_fuzz(self):
        for seed in range(15):
            net = random_network(seed + 100)
            out = net.copy()
            simplify(out)
            assert equivalent_networks(net, out), seed


class TestExtract:
    def test_extracts_shared_kernel(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d", "e"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a c + a d"))
        net.add_node("g", BooleanFunction.parse("b c + b d + e"))
        net.add_output("f")
        net.add_output("g")
        created = extract(net)
        assert created >= 1
        # The shared kernel c + d should now be a fanout node.
        assert equivalent_networks(net, _reference_extract())
        fanouts = net.fanout_map()
        shared = [
            s
            for s, readers in fanouts.items()
            if net.has_node(s) and len(readers) >= 2
        ]
        assert shared

    def test_equivalence_fuzz(self):
        for seed in range(15):
            net = random_network(seed + 150)
            out = net.copy()
            extract(out)
            assert equivalent_networks(net, out), seed

    def test_output_independent_of_hash_seed(self):
        """The extracted kernel node's cube order must not follow ``str``
        hashing: the written BLIF is identical under two hash seeds."""
        code = (
            "from repro.boolean.function import BooleanFunction as F\n"
            "from repro.io.blif import to_blif\n"
            "from repro.network.network import BooleanNetwork\n"
            "from repro.network.transform import extract\n"
            "net = BooleanNetwork('kern')\n"
            "for pi in 'abcdeh':\n"
            "    net.add_input(pi)\n"
            "net.add_node('f', F.parse('a c + a d + b c + b d + e'))\n"
            "net.add_node('g', F.parse('a c + a d + b c + b d + h'))\n"
            "net.add_node('u', F.parse('c e h + d e h + a'))\n"
            "for out in 'fgu':\n"
            "    net.add_output(out)\n"
            "extract(net)\n"
            "print(to_blif(net), end='')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        blifs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert "[k0]" in blifs[0]
        assert blifs[0] == blifs[1]


def _reference_extract():
    net = BooleanNetwork()
    for name in ("a", "b", "c", "d", "e"):
        net.add_input(name)
    net.add_node("f", BooleanFunction.parse("a c + a d"))
    net.add_node("g", BooleanFunction.parse("b c + b d + e"))
    net.add_output("f")
    net.add_output("g")
    return net


class TestExtractCubes:
    def test_extracts_shared_cube(self):
        # ab occurs three times: extraction saves literals (at two
        # occurrences it is cost-neutral and correctly skipped).
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a b c"))
        net.add_node("g", BooleanFunction.parse("a b d"))
        net.add_node("h", BooleanFunction.parse("a b c' + d"))
        net.add_output("f")
        net.add_output("g")
        net.add_output("h")
        created = extract_cubes(net)
        assert created >= 1
        assert equivalent_networks(net, _reference_cubes())

    def test_neutral_pair_not_extracted(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_input(name)
        net.add_node("f", BooleanFunction.parse("a b c"))
        net.add_node("g", BooleanFunction.parse("a b d"))
        net.add_output("f")
        net.add_output("g")
        assert extract_cubes(net) == 0

    def test_equivalence_fuzz(self):
        for seed in range(10):
            net = random_network(seed + 200)
            out = net.copy()
            extract_cubes(out)
            assert equivalent_networks(net, out), seed


def _reference_cubes():
    net = BooleanNetwork()
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    net.add_node("f", BooleanFunction.parse("a b c"))
    net.add_node("g", BooleanFunction.parse("a b d"))
    net.add_node("h", BooleanFunction.parse("a b c' + d"))
    net.add_output("f")
    net.add_output("g")
    net.add_output("h")
    return net


class TestResubstitute:
    def test_reuses_existing_divisor(self):
        net = BooleanNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_node("d", BooleanFunction.parse("a + b"))
        net.add_node("f", BooleanFunction.parse("a c + b c"))
        net.add_output("d")
        net.add_output("f")
        hits = resubstitute(net)
        assert hits >= 1
        assert "d" in net.function("f").variables

    def test_equivalence_fuzz(self):
        for seed in range(10):
            net = random_network(seed + 250)
            out = net.copy()
            resubstitute(out)
            assert equivalent_networks(net, out), seed


class TestDivideFunctions:
    def test_rewrites_with_divisor_name(self):
        f = BooleanFunction.parse("a c + b c + d")
        d = BooleanFunction.parse("a + b")
        out = divide_functions(f, d, "k")
        assert out is not None
        assert "k" in out.variables
        # k c + d
        assert out.num_literals == 3

    def test_returns_none_without_gain(self):
        f = BooleanFunction.parse("a")
        d = BooleanFunction.parse("b + c")
        assert divide_functions(f, d, "k") is None


class TestDecompose:
    def test_bounded_fanin(self):
        net = random_network(301, npi=8, nnodes=8)
        out = net.copy()
        decompose(out, max_fanin=3)
        for node in out.node_names:
            assert len(out.fanins(node)) <= 3
        assert equivalent_networks(net, out)

    def test_simple_gate_shape(self):
        net = random_network(302)
        out = net.copy()
        decompose(out, max_fanin=4)
        for node in out.node_names:
            func = out.function(node)
            single_cube = func.num_cubes <= 1
            or_shape = all(c.num_literals == 1 for c in func.cover.cubes)
            assert single_cube or or_shape, (node, func)

    def test_inverter_gates_mode(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", BooleanFunction.parse("a' b"))
        net.add_output("f")
        reference = net.copy()
        decompose(net, max_fanin=3, inverter_gates=True)
        assert equivalent_networks(reference, net)
        # Every gate now reads only positive literals.
        for node in net.node_names:
            func = net.function(node)
            if func.num_cubes == 1 and func.num_literals == 1:
                continue  # the inverter itself
            for cube in func.cover.cubes:
                assert cube.neg == 0, (node, func)

    def test_inverters_shared(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_input("c")
        net.add_node("f", BooleanFunction.parse("a' b"))
        net.add_node("g", BooleanFunction.parse("a' c"))
        net.add_output("f")
        net.add_output("g")
        decompose(net, max_fanin=3, inverter_gates=True)
        inverters = [
            n
            for n in net.node_names
            if net.function(n).num_cubes == 1
            and net.function(n).cover.cubes[0].neg
        ]
        assert len(inverters) == 1  # a' created once, shared

    def test_equivalence_fuzz(self):
        for seed in range(10):
            net = random_network(seed + 300)
            for fanin in (0, 2, 4):
                out = net.copy()
                decompose(out, max_fanin=fanin, inverter_gates=seed % 2 == 0)
                assert equivalent_networks(net, out), (seed, fanin)


class TestCollapseNetwork:
    def test_flattens_to_two_levels(self):
        net = random_network(400, npi=6, nnodes=8)
        flat = collapse_network(net)
        assert flat.depth() <= 1
        assert equivalent_networks(net, flat)

    def test_po_aliasing_input(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_output("a")
        flat = collapse_network(net)
        assert flat.outputs == ("a",)
