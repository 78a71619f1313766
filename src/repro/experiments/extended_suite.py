"""Suite-wide sweep over the full (34-circuit) benchmark population.

The paper synthesized "about 60 multi-output benchmarks" and reported 10.
This harness runs both flows over every stand-in (Table-I tier plus the
extended tier), verifies each result by simulation, and aggregates the same
statistics the paper summarizes in prose: average reduction, how often TELS
wins / ties / loses, and worst cases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.benchgen.extended import build_extended_benchmark
from repro.core.area import NetworkStats, network_stats
from repro.core.identify import CheckStats
from repro.core.mapping import one_to_one_map
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.engine.store import StoreStats
from repro.errors import SynthesisError
from repro.network.scripts import prepare_one_to_one, prepare_tels


@dataclass(frozen=True)
class SuiteRow:
    """One benchmark's outcome in the suite sweep."""

    name: str
    one_to_one: NetworkStats
    tels: NetworkStats
    verified: bool
    check_stats: CheckStats | None = None
    store_stats: StoreStats | None = None
    #: Cones the resilience layer completed with the one-to-one fallback
    #: (0 in a healthy run; nonzero only under deadlines or chaos).
    degraded_cones: int = 0

    @property
    def reduction_percent(self) -> float:
        if not self.one_to_one.gates:
            return 0.0
        return (
            100.0
            * (self.one_to_one.gates - self.tels.gates)
            / self.one_to_one.gates
        )


@dataclass(frozen=True)
class SuiteSummary:
    """Aggregate over all rows."""

    rows: tuple[SuiteRow, ...]

    @property
    def mean_reduction_percent(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.reduction_percent for r in self.rows) / len(self.rows)

    @property
    def wins(self) -> int:
        return sum(1 for r in self.rows if r.tels.gates < r.one_to_one.gates)

    @property
    def ties(self) -> int:
        return sum(1 for r in self.rows if r.tels.gates == r.one_to_one.gates)

    @property
    def losses(self) -> int:
        return sum(1 for r in self.rows if r.tels.gates > r.one_to_one.gates)

    def worst(self) -> SuiteRow | None:
        return min(self.rows, key=lambda r: r.reduction_percent, default=None)

    def best(self) -> SuiteRow | None:
        return max(self.rows, key=lambda r: r.reduction_percent, default=None)

    @property
    def mean_tels_levels(self) -> float:
        """Average depth of the TELS networks ("well-balanced" claim)."""
        if not self.rows:
            return 0.0
        return sum(r.tels.levels for r in self.rows) / len(self.rows)

    @property
    def mean_one_to_one_levels(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.one_to_one.levels for r in self.rows) / len(self.rows)

    def check_totals(self) -> CheckStats:
        """Checker counters folded over every row (missing rows skipped)."""
        totals = CheckStats()
        for row in self.rows:
            if row.check_stats is not None:
                totals.add(row.check_stats)
        return totals

    @property
    def degraded_cones(self) -> int:
        """Degraded cones across the whole suite (expected 0)."""
        return sum(r.degraded_cones for r in self.rows)

    def store_totals(self) -> StoreStats:
        """Store counters folded over every row (missing rows skipped)."""
        totals = StoreStats()
        for row in self.rows:
            if row.store_stats is not None:
                totals.add(row.store_stats)
        return totals


def _run_one(
    name: str,
    psi: int,
    seed: int,
    verify_vectors: int,
    cache_dir: str | None = None,
    gate_model: str = "ltg",
) -> SuiteRow:
    """Both flows for one benchmark (module-level: process-pool friendly)."""
    source = build_extended_benchmark(name)
    one_net = one_to_one_map(prepare_one_to_one(source, max_fanin=psi))
    tels_net, report = synthesize_with_report(
        prepare_tels(source),
        SynthesisOptions(psi=psi, seed=seed, gate_model=gate_model),
        cache_dir=cache_dir,
    )
    verified = verify_threshold_network(
        source, tels_net, vectors=verify_vectors
    ) and verify_threshold_network(
        source, one_net, vectors=verify_vectors
    )
    if not verified:
        raise SynthesisError(f"suite verification failed on {name!r}")
    if report.lint is not None and report.lint.violations:
        # Fail fast: a suite run must not aggregate statistics over a
        # network the static post-pass rejected.
        worst = ", ".join(
            f"{rid}x{n}" for rid, n in sorted(report.lint.by_rule().items())
        )
        raise SynthesisError(
            f"suite lint failed on {name!r}: "
            f"{report.lint.violations} violation(s) ({worst})"
        )
    check = (
        report.checker.stats.snapshot() if report.checker is not None else None
    )
    store = report.checker.store if report.checker is not None else None
    return SuiteRow(
        name,
        network_stats(one_net),
        network_stats(tels_net),
        verified,
        check_stats=check,
        store_stats=store.stats.snapshot() if store is not None else None,
        degraded_cones=report.degraded_cones,
    )


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request (None/0 → all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_suite(
    names: list[str],
    psi: int = 3,
    seed: int = 0,
    verify_vectors: int = 512,
    jobs: int = 1,
    cache_dir: str | None = None,
    gate_model: str = "ltg",
) -> SuiteSummary:
    """Run both flows over every named benchmark; verify everything.

    With ``jobs > 1`` whole benchmarks are dispatched across a process pool
    (the sweep is embarrassingly parallel); row order — and every synthesized
    network — is identical to a serial run.  ``cache_dir`` points every run
    at the same persistent synthesis cache; loads are corruption-tolerant and
    each benchmark flushes only its new entries, so concurrent rows stay
    safe.
    ``gate_model`` selects the :mod:`repro.gates` backend the TELS flow
    synthesizes for (the one-to-one baseline always maps to plain LTGs).
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(names) <= 1:
        rows = [
            _run_one(n, psi, seed, verify_vectors, cache_dir, gate_model)
            for n in names
        ]
        return SuiteSummary(tuple(rows))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        futures = [
            pool.submit(
                _run_one,
                n,
                psi,
                seed,
                verify_vectors,
                cache_dir,
                gate_model,
            )
            for n in names
        ]
        rows = [f.result() for f in futures]
    return SuiteSummary(tuple(rows))


def format_suite(summary: SuiteSummary) -> str:
    """Render the sweep as aligned text plus the aggregate line."""
    lines = [
        f"{'benchmark':10s} {'1-to-1':>8s} {'TELS':>6s} {'red%':>7s}",
    ]
    for row in sorted(summary.rows, key=lambda r: -r.reduction_percent):
        lines.append(
            f"{row.name:10s} {row.one_to_one.gates:8d} {row.tels.gates:6d} "
            f"{row.reduction_percent:6.1f}"
        )
    worst = summary.worst()
    lines.append(
        f"\n{len(summary.rows)} circuits: mean reduction "
        f"{summary.mean_reduction_percent:.1f}%  "
        f"(W/T/L = {summary.wins}/{summary.ties}/{summary.losses}; "
        f"worst: {worst.name} {worst.reduction_percent:.1f}%)"
        if worst
        else "no rows"
    )
    totals = summary.check_totals()
    if totals.calls:
        lines.append(
            f"checks: {totals.calls} calls, {totals.ilp_solved} ILPs; "
            f"fastpath {totals.fastpath_hits} hits / "
            f"{totals.fastpath_negatives} negatives / "
            f"{totals.fastpath_misses} misses "
            f"({100.0 * totals.fastpath_hit_rate:.1f}% without ILP); "
            f"solvers: exact {totals.exact_solves} "
            f"({totals.exact_wall_s:.3f}s)"
        )
    if summary.degraded_cones:
        lines.append(
            f"degraded: {summary.degraded_cones} cone(s) fell back to "
            "one-to-one mapping"
        )
    store = summary.store_totals()
    if store.persistent_lookups:
        lines.append(
            f"persistent cache: {store.persistent_hits} hits / "
            f"{store.persistent_misses} misses "
            f"({100.0 * store.persistent_hit_rate:.1f}%), "
            f"{store.transformed_hits} NP-transformed, "
            f"{store.transform_rejects} rejected"
        )
    return "\n".join(lines)
