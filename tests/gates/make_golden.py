"""Regenerate the pre-refactor differential baseline for the ltg model.

Run from the repo root::

    PYTHONPATH=src python tests/gates/make_golden.py

Only regenerate when the default (``ltg``) synthesis behavior is changed
*intentionally* — the golden file pins gate counts, areas, per-gate margins,
and the persistent NP-canonical cache keys of the Table-I bench subset, and
``tests/gates/test_differential.py`` fails when any of them drift.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.benchgen.extended import build_extended_benchmark
from repro.core.area import network_stats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.network.scripts import prepare_tels

BENCH_SUBSET = ("cm152a", "cm85a", "cmb", "comp")
GOLDEN_PATH = Path(__file__).with_name("golden_ltg.json")


def cache_keys(cache_dir: str) -> list[str]:
    """Entry keys of the persistent cache a run left behind."""
    keys: list[str] = []
    for path in sorted(Path(cache_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "k" in record:
                keys.append(record["k"])
    return sorted(keys)


def capture(name: str) -> dict:
    source = build_extended_benchmark(name)
    with tempfile.TemporaryDirectory() as tmp:
        net, _report = synthesize_with_report(
            prepare_tels(source),
            SynthesisOptions(psi=3, seed=0),
            cache_dir=tmp,
        )
        stats = network_stats(net)
        margins = sorted(
            [list(gate.margins()) for gate in net.gates()],
        )
        return {
            "gates": stats.gates,
            "levels": stats.levels,
            "area": stats.area,
            "margins": margins,
            "cache_keys": cache_keys(tmp),
        }


def main() -> None:
    golden = {name: capture(name) for name in BENCH_SUBSET}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, row in golden.items():
        print(
            f"{name}: {row['gates']} gates, area {row['area']}, "
            f"{len(row['cache_keys'])} cache keys"
        )


if __name__ == "__main__":
    main()
