"""Defect-tolerance sweeps over a shared result store.

The Section VI-C experiments resynthesize the same benchmarks at several
``delta_on`` settings.  The ILP solutions change with the tolerances, but
the delta-independent half of every threshold check — cover minimization,
the positive-unate rewrite, the complement — does not.  Sweeping with one
shared :class:`~repro.engine.store.ResultStore` therefore re-solves only the
ILPs: the analysis tier reports hits from the second sweep point on, which
is the effect this module measures and the CLI ``tels sweep`` command
prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchgen.extended import build_extended_benchmark
from repro.core.area import network_stats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.engine.store import ResultStore, StoreStats
from repro.errors import SynthesisError
from repro.network.scripts import prepare_tels


@dataclass(frozen=True)
class SweepPoint:
    """One delta setting of the sweep, with its store-reuse counters."""

    delta_on: int
    delta_off: int
    gates: int
    area: int
    checker_calls: int
    checker_cache_hits: int
    store_stats: StoreStats  # store activity during this point only

    @property
    def analysis_hit_rate(self) -> float:
        return self.store_stats.analysis_hit_rate

    @property
    def cache_hits(self) -> int:
        """Hits across both store tiers while this point synthesized."""
        return self.store_stats.hits


def run_delta_sweep(
    names: list[str],
    delta_ons: tuple[int, ...] = (0, 1, 2, 3),
    delta_off: int = 1,
    psi: int = 3,
    seed: int = 0,
    store: ResultStore | None = None,
    verify_vectors: int = 512,
    cache_dir: str | None = None,
    gate_model: str = "ltg",
) -> list[SweepPoint]:
    """Synthesize every benchmark at every ``delta_on``, sharing one store.

    ``cache_dir`` (ignored when ``store`` is given) additionally layers the
    persistent NP-canonical cache under the shared store, so repeated sweeps
    warm-start from disk.  ``gate_model`` selects the :mod:`repro.gates`
    backend every sweep point synthesizes for — the store is shared either
    way, but backends never share entries (the store keys carry the model
    fingerprint).
    """
    if store is None:
        store = (
            ResultStore.with_cache_dir(cache_dir)
            if cache_dir is not None
            else ResultStore()
        )
    sources = {name: build_extended_benchmark(name) for name in names}
    prepared = {name: prepare_tels(net) for name, net in sources.items()}
    points: list[SweepPoint] = []
    for delta_on in delta_ons:
        before = store.stats.snapshot()
        gates = area = calls = hits = 0
        for name in names:
            th, report = synthesize_with_report(
                prepared[name],
                SynthesisOptions(
                    psi=psi,
                    delta_on=delta_on,
                    delta_off=delta_off,
                    seed=seed,
                    gate_model=gate_model,
                ),
                store=store,
            )
            if not verify_threshold_network(
                sources[name], th, vectors=verify_vectors
            ):
                raise SynthesisError(
                    f"sweep verification failed for {name!r} at "
                    f"delta_on={delta_on}"
                )
            stats = network_stats(th)
            gates += stats.gates
            area += stats.area
            calls += report.checker.stats.calls
            hits += report.checker.stats.cache_hits
        points.append(
            SweepPoint(
                delta_on=delta_on,
                delta_off=delta_off,
                gates=gates,
                area=area,
                checker_calls=calls,
                checker_cache_hits=hits,
                store_stats=store.stats.since(before),
            )
        )
    return points


def format_sweep(points: list[SweepPoint]) -> str:
    """Render the sweep with the store-reuse columns."""
    lines = [
        f"{'d_on':>5s} {'gates':>6s} {'area':>7s} {'checks':>7s} "
        f"{'hits':>6s} {'analysis-reuse':>14s}"
    ]
    for p in points:
        lines.append(
            f"{p.delta_on:5d} {p.gates:6d} {p.area:7d} "
            f"{p.checker_calls:7d} {p.cache_hits:6d} "
            f"{100.0 * p.analysis_hit_rate:13.1f}%"
        )
    if len(points) > 1:
        later = points[1:]
        reused = sum(p.store_stats.analysis_hits for p in later)
        lines.append(
            f"shared store: {reused} analyses reused after the first sweep "
            f"point (only the ILPs were re-solved)"
        )
    return "\n".join(lines)
