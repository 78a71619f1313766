"""End-to-end synthesis flows for the experiments.

``run_flows`` takes a benchmark name, runs both competing flows —

* **one-to-one**: ``script.boolean`` stand-in → technology decomposition to
  fanin ψ (explicit inverters) → one LTG per gate;
* **TELS**: ``script.algebraic`` stand-in → fine factored decomposition →
  recursive threshold synthesis (Fig. 3) —

verifies both against the source network, and returns the
:class:`FlowResult`.  Results are cached per (benchmark, ψ, δ_on, δ_off,
seed), because the figure experiments re-use Table I's synthesized networks
many times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchgen.mcnc import build_benchmark
from repro.core.area import NetworkStats, network_stats
from repro.core.mapping import one_to_one_map
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.threshold import ThresholdNetwork
from repro.core.verify import verify_threshold_network
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork
from repro.network.scripts import prepare_one_to_one, prepare_tels


@dataclass
class FlowResult:
    """Both flows' outputs for one benchmark at one configuration."""

    name: str
    psi: int
    delta_on: int
    delta_off: int
    source: BooleanNetwork
    one_to_one: ThresholdNetwork
    tels: ThresholdNetwork
    one_to_one_stats: NetworkStats
    tels_stats: NetworkStats
    verified: bool

    @property
    def best(self) -> ThresholdNetwork:
        """The better-of-two guarantee from Section VI-A: TELS never ships a
        network with more gates than one-to-one mapping."""
        if self.tels_stats.gates <= self.one_to_one_stats.gates:
            return self.tels
        return self.one_to_one

    @property
    def gate_reduction_percent(self) -> float:
        before = self.one_to_one_stats.gates
        if before == 0:
            return 0.0
        return 100.0 * (before - self.tels_stats.gates) / before


_CACHE: dict[tuple, FlowResult] = {}
_NETWORK_CACHE: dict[str, BooleanNetwork] = {}
_PREP_CACHE: dict[tuple, BooleanNetwork] = {}


def clear_flow_cache() -> None:
    """Drop all cached flow results (for tests that tweak generators)."""
    _CACHE.clear()
    _NETWORK_CACHE.clear()
    _PREP_CACHE.clear()


def _source(name: str) -> BooleanNetwork:
    if name not in _NETWORK_CACHE:
        _NETWORK_CACHE[name] = build_benchmark(name)
    return _NETWORK_CACHE[name]


def run_flows(
    name: str,
    psi: int = 3,
    delta_on: int = 0,
    delta_off: int = 1,
    seed: int = 0,
    verify_vectors: int = 1024,
    store=None,
) -> FlowResult:
    """Run (or fetch cached) one-to-one and TELS flows for one benchmark.

    ``store`` passes straight to the synthesis engine; it does not change
    the emitted network, so it is not part of the cache key.
    """
    key = (name, psi, delta_on, delta_off, seed)
    if key in _CACHE:
        return _CACHE[key]
    source = _source(name)

    prep_key = ("1to1", name, psi)
    if prep_key not in _PREP_CACHE:
        _PREP_CACHE[prep_key] = prepare_one_to_one(source, max_fanin=psi)
    one_to_one_net = one_to_one_map(
        _PREP_CACHE[prep_key], delta_on=delta_on, delta_off=delta_off
    )

    tels_key = ("tels", name)
    if tels_key not in _PREP_CACHE:
        _PREP_CACHE[tels_key] = prepare_tels(source)
    tels_net, report = synthesize_with_report(
        _PREP_CACHE[tels_key],
        SynthesisOptions(
            psi=psi, delta_on=delta_on, delta_off=delta_off, seed=seed
        ),
        store=store,
    )
    if report.lint is not None and report.lint.violations:
        # The figure experiments re-use these networks many times; never
        # cache one the static post-pass rejected.
        raise SynthesisError(
            f"flow lint failed for {name!r}: "
            f"{report.lint.violations} violation(s) "
            f"({', '.join(sorted(report.lint.by_rule()))})"
        )

    verified = verify_threshold_network(
        source, tels_net, vectors=verify_vectors
    ) and verify_threshold_network(
        source, one_to_one_net, vectors=verify_vectors
    )
    if not verified:
        raise SynthesisError(f"flow verification failed for {name!r}")
    result = FlowResult(
        name=name,
        psi=psi,
        delta_on=delta_on,
        delta_off=delta_off,
        source=source,
        one_to_one=one_to_one_net,
        tels=tels_net,
        one_to_one_stats=network_stats(one_to_one_net),
        tels_stats=network_stats(tels_net),
        verified=True,
    )
    _CACHE[key] = result
    return result
