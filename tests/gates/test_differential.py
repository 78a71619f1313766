"""Differential guard: the default model must match the pre-refactor seed.

``golden_ltg.json`` (regenerated only via ``make_golden.py``) pins the
Table-I bench subset as synthesized *before* the gate-model refactor:
gate counts, areas, the sorted per-gate margin multiset, and the
persistent NP-canonical cache keys.  Any drift under the default ``ltg``
model means the refactor changed behavior it was
required to preserve.
"""

from __future__ import annotations

import json
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.benchgen.extended import build_extended_benchmark
from repro.core.area import network_stats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.network.scripts import prepare_tels

GOLDEN = json.loads(
    Path(__file__).with_name("golden_ltg.json").read_text()
)
BENCH_SUBSET = tuple(sorted(GOLDEN))


def capture(name: str) -> dict:
    """Mirror of ``make_golden.capture`` — same options, same shape."""
    source = build_extended_benchmark(name)
    with tempfile.TemporaryDirectory() as tmp:
        net, _report = synthesize_with_report(
            prepare_tels(source),
            SynthesisOptions(psi=3, seed=0),
            cache_dir=tmp,
        )
        stats = network_stats(net)
        margins = sorted(list(gate.margins()) for gate in net.gates())
        keys: list[str] = []
        for path in sorted(Path(tmp).glob("*.jsonl")):
            for line in path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "k" in record:
                    keys.append(record["k"])
        return {
            "gates": stats.gates,
            "levels": stats.levels,
            "area": stats.area,
            "margins": margins,
            "cache_keys": sorted(keys),
        }


@pytest.mark.parametrize("name", BENCH_SUBSET)
def test_default_model_matches_seed(name):
    assert capture(name) == GOLDEN[name]


def test_parallel_run_matches_seed_too():
    # Work distribution must not leak into results: whole circuits in a
    # two-process pool (the way ``run_suite(jobs=2)`` runs them), same
    # networks, same cache keys.
    names = BENCH_SUBSET[:2]
    with ProcessPoolExecutor(max_workers=2) as pool:
        captured = list(pool.map(capture, names))
    assert captured == [GOLDEN[name] for name in names]


@pytest.mark.parametrize("name", BENCH_SUBSET)
def test_golden_cache_keys_are_unsuffixed(name):
    # The ltg model keeps the historical 4-field entry keys; a fingerprint
    # suffix here would orphan every pre-refactor cache on disk.
    for key in GOLDEN[name]["cache_keys"]:
        assert key.count("|") == 3, key
