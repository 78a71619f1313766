"""The 40-circuit corpus of ``repro.benchgen.mcnc`` and its stressors.

The 36 bulk circuits synthesize at psi=3 to verified networks.  The
stressors run at ``CORPUS_STRESSOR_PSI`` without sharing so their cones
reach the checker whole: a 9-support cone the Chow fast path cannot decide
(the Fig. 6 ILP must) and a unate non-threshold cone the 2-monotonicity
screen refutes.  ``parmix``, the recipe the corpus stressors follow, must
hit the same two paths under ``ltg``.
"""

from __future__ import annotations

from repro.benchgen.extended import build_extended_benchmark
from repro.benchgen.mcnc import (
    CORPUS_STRESSOR_PSI,
    build_corpus_circuit,
    corpus_names,
    is_corpus_stressor,
)
from repro.core.identify import CheckStats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.network.scripts import prepare_tels


def _synthesize(source, options):
    network, report = synthesize_with_report(prepare_tels(source), options)
    assert verify_threshold_network(source, network), source.name
    assert report.degraded_cones == 0, source.name
    return report.checker.stats


def test_bulk_circuits_verify():
    bulk = [n for n in corpus_names() if not is_corpus_stressor(n)]
    assert len(bulk) == 36
    for name in bulk:
        _synthesize(build_corpus_circuit(name), SynthesisOptions(psi=3))


def test_stressors_reach_the_ilp_and_refute_a_cone():
    stressors = [n for n in corpus_names() if is_corpus_stressor(n)]
    assert len(stressors) == 4
    totals = CheckStats()
    for name in stressors:
        totals.add(
            _synthesize(
                build_corpus_circuit(name),
                SynthesisOptions(
                    psi=CORPUS_STRESSOR_PSI, preserve_sharing=False
                ),
            )
        )
    assert totals.ilp_solved > 0
    assert totals.fastpath_negatives > 0


def test_parmix_reaches_the_ilp_and_refutes_a_cone_under_ltg():
    stats = _synthesize(
        build_extended_benchmark("parmix"),
        SynthesisOptions(psi=9, gate_model="ltg", preserve_sharing=False),
    )
    assert stats.ilp_solved > 0
    assert stats.fastpath_negatives > 0
