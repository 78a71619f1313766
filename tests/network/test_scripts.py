"""Unit tests for the script pipelines (SIS stand-ins)."""

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.network.scripts import (
    prepare_one_to_one,
    prepare_tels,
    script_algebraic,
    script_boolean,
)
from repro.network.simulate import equivalent_networks
from tests.conftest import random_network


class TestScriptAlgebraic:
    def test_preserves_function(self, motivational_network):
        out = script_algebraic(motivational_network)
        assert equivalent_networks(motivational_network, out)

    def test_reduces_literals_fuzz(self):
        for seed in range(12):
            net = random_network(seed + 500)
            out = script_algebraic(net)
            assert equivalent_networks(net, out), seed
            assert out.num_literals() <= net.num_literals() + 2, seed

    def test_output_names_preserved(self):
        net = random_network(510)
        out = script_algebraic(net)
        assert out.outputs == net.outputs


class TestScriptBoolean:
    def test_preserves_function_fuzz(self):
        for seed in range(12):
            net = random_network(seed + 520)
            out = script_boolean(net)
            assert equivalent_networks(net, out), seed

    def test_never_more_literals_than_algebraic_much(self):
        for seed in range(6):
            net = random_network(seed + 530)
            alg = script_algebraic(net)
            boo = script_boolean(net)
            assert boo.num_literals() <= alg.num_literals() + 4


class TestPrepareOneToOne:
    def test_bounded_fanin_simple_gates(self):
        net = random_network(540)
        out = prepare_one_to_one(net, max_fanin=3)
        assert equivalent_networks(net, out)
        for node in out.node_names:
            func = out.function(node)
            assert func.nvars <= 3
            single_cube = func.num_cubes <= 1
            or_shape = all(c.num_literals == 1 for c in func.cover.cubes)
            assert single_cube or or_shape

    def test_inverter_gates_default(self):
        net = random_network(541)
        out = prepare_one_to_one(net, max_fanin=3)
        for node in out.node_names:
            func = out.function(node)
            if func.nvars == 1 and func.num_cubes == 1:
                continue  # inverter or buffer
            for cube in func.cover.cubes:
                assert cube.neg == 0, (node, func)


class TestPrepareTels:
    def test_preserves_function_fuzz(self):
        for seed in range(8):
            net = random_network(seed + 550)
            out = prepare_tels(net)
            assert equivalent_networks(net, out), seed

    def test_fine_granularity(self):
        net = random_network(560)
        out = prepare_tels(net)
        for node in out.node_names:
            func = out.function(node)
            single_cube = func.num_cubes <= 1
            or_shape = all(c.num_literals == 1 for c in func.cover.cubes)
            assert single_cube or or_shape


#: Both prep scripts over the nine Table I stand-ins (i10 left out: its
#: prep alone runs for tens of seconds); prints ``{name: [tels, one]}``.
_PREP_ALL = """\
import json
from repro.benchgen.mcnc import benchmark_names, build_benchmark
from repro.io.blif import to_blif
from repro.network.scripts import prepare_one_to_one, prepare_tels
out = {}
for name in benchmark_names(include_large=False):
    src = build_benchmark(name)
    out[name] = [to_blif(prepare_tels(src)), to_blif(prepare_one_to_one(src, 3))]
print(json.dumps(out))
"""


def test_prep_output_independent_of_hash_seed():
    """Prepared networks must not follow ``str`` hashing: the written BLIF
    of both flows' prep is identical under two hash seeds."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _PREP_ALL],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
        )
        for seed in ("0", "3")
    ]
    assert len(runs[0]) == 9
    assert [n for n in runs[0] if runs[0][n] != runs[1][n]] == []
