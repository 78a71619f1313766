"""Engine-level behaviour: the cone queue, run traces, store reuse.

Every synthesized network must simulate equivalent to its source, and
must not depend on which process synthesized it: the only parallel unit
is a whole circuit in a process pool, as ``run_suite(jobs=N)`` runs it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.benchgen.paper_examples import motivational_network
from repro.benchgen.random_logic import random_logic_network
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.engine.cone import task_rng
from repro.engine.scheduler import preserved_set, run_synthesis
from repro.engine.store import ResultStore
from repro.network.scripts import prepare_tels


def _gate_list(net):
    """The full observable identity of a synthesized network."""
    return [
        (g.name, g.inputs, g.weights, g.threshold, g.delta_on, g.delta_off)
        for g in net.gates()
    ]


def _random_circuits():
    return [
        random_logic_network(
            f"rand{seed}",
            num_inputs=8,
            num_outputs=3,
            num_nodes=14,
            seed=seed,
        )
        for seed in (11, 23, 47)
    ]


def _synthesize_in_worker(net, options):
    """Pool-side half of the determinism tests (module-level: picklable)."""
    result = run_synthesis(net, options)
    return os.getpid(), result.network, result.report.checker.stats.calls


def _pooled(net, options, copies=2):
    """Synthesize ``copies`` of ``net`` concurrently in a two-process pool."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(_synthesize_in_worker, net, options)
            for _ in range(copies)
        ]
        return [f.result() for f in futures]


class TestTaskLayer:
    def test_one_initial_task_per_output_node(self):
        net = prepare_tels(motivational_network())
        outputs = [o for o in net.outputs if net.has_node(o)]
        roots = [m.task_id for m in run_synthesis(net).trace.tasks]
        # The queue is FIFO: output cones run first, in declaration order.
        assert roots[: len(outputs)] == outputs
        assert len(set(roots)) == len(roots)

    def test_preserved_set_contains_outputs(self):
        net = prepare_tels(motivational_network())
        preserved = preserved_set(net, preserve_sharing=True)
        for out in net.outputs:
            if net.has_node(out):
                assert out in preserved

    def test_task_rng_is_deterministic_and_per_task(self):
        a = task_rng(0, "z0")
        b = task_rng(0, "z0")
        c = task_rng(0, "z1")
        seq_a = [a.random() for _ in range(5)]
        assert seq_a == [b.random() for _ in range(5)]
        assert seq_a != [c.random() for _ in range(5)]


class TestSerialEngine:
    def test_motivational_network(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        assert verify_threshold_network(motivational_network(), result.network)
        assert len(result.trace.tasks) >= len(net.outputs)

    def test_trace_totals_match_report(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        assert result.report.nodes_processed == result.trace.total(
            "nodes_processed"
        )
        assert result.report.trace is result.trace

    def test_events_cover_every_task(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        for metrics in result.trace.tasks:
            phases = {e.phase for e in metrics.events()}
            assert "done" in phases

    def test_summary_formats(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        text = result.trace.format_summary()
        assert "engine:" in text
        assert "collapse" in text


class TestParallelDeterminism:
    """A circuit synthesized in a pool worker must be bit-identical."""

    def test_motivational_example(self):
        source = motivational_network()
        net = prepare_tels(source)
        serial = run_synthesis(net, SynthesisOptions(psi=4))
        for pid, pooled, _calls in _pooled(net, SynthesisOptions(psi=4)):
            assert pid != os.getpid()
            assert _gate_list(serial.network) == _gate_list(pooled)
            assert verify_threshold_network(source, pooled)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_random_benchgen_circuits(self, index):
        source = _random_circuits()[index]
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, seed=5)
        serial = run_synthesis(net, options)
        assert verify_threshold_network(source, serial.network)
        for _pid, pooled, _calls in _pooled(net, options):
            assert _gate_list(serial.network) == _gate_list(pooled)
            assert verify_threshold_network(source, pooled)

    def test_parallel_stats_match_serial(self):
        """A worker's checker must do exactly the serial run's work."""
        net = prepare_tels(motivational_network())
        serial = run_synthesis(net, SynthesisOptions(psi=4))
        for _pid, _pooled_net, calls in _pooled(net, SynthesisOptions(psi=4)):
            assert calls == serial.report.checker.stats.calls


class TestSharedStore:
    def test_delta_sweep_reuses_analyses(self):
        """2nd+ sweep points must hit the delta-independent tier."""
        source = motivational_network()
        net = prepare_tels(source)
        store = ResultStore()
        for delta_on in (0, 1, 2):
            before = store.stats.snapshot()
            result = run_synthesis(
                net,
                SynthesisOptions(psi=4, delta_on=delta_on),
                store=store,
            )
            assert verify_threshold_network(source, result.network)
            spent = store.stats.since(before)
            if delta_on > 0:
                assert spent.analysis_hits > 0
                assert spent.analysis_misses == 0

    def test_same_point_twice_is_all_hits(self):
        net = prepare_tels(motivational_network())
        store = ResultStore()
        run_synthesis(net, SynthesisOptions(psi=4), store=store)
        before = store.stats.snapshot()
        run_synthesis(net, SynthesisOptions(psi=4), store=store)
        spent = store.stats.since(before)
        assert spent.vector_misses == 0
        assert spent.analysis_misses == 0

    def test_facade_passes_store_through(self):
        net = prepare_tels(motivational_network())
        store = ResultStore()
        synthesize_with_report(net, SynthesisOptions(psi=4), store=store)
        assert len(store) > 0


class TestFacade:
    def test_report_carries_trace_and_checker(self):
        net = prepare_tels(motivational_network())
        _, report = synthesize_with_report(net, SynthesisOptions(psi=4))
        assert report.trace is not None
        assert report.checker is not None
        assert report.checker.stats.calls > 0
