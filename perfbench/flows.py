"""The flows a workload runs, called through the program's public functions.

Every call into the program goes through a module attribute looked up at
call time (``blif.parse_blif(...)``, not a name bound at import), so the
traced run can swap in span-recording wrappers with :func:`instrument`
while the untraced run calls the program directly.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import repro.core.mapping as mapping
import repro.core.synthesis as synthesis
import repro.core.verify as verify
import repro.io.blif as blif
import repro.io.thblif as thblif
import repro.network.scripts as scripts
from repro.boolean.cover import Cover
from repro.core.area import boolean_stats, network_stats
from repro.network.simulate import EXHAUSTIVE_LIMIT

from spans import Recorder, tail

#: ``repro.network.scripts`` steps the traced run times one by one.
PREP_STEPS = (
    "sweep", "simplify", "eliminate", "extract", "extract_cubes",
    "resubstitute", "decompose",
)

GATE_MODELS = ("ltg", "multi-threshold", "flash")


def report_counts(report) -> Counter:
    """The counters one ``synthesize_with_report`` call reports."""
    c: Counter = Counter()
    trace = report.trace
    if trace is not None:
        c["engine.cones"] += len(trace.tasks)
        c["engine.retries"] += trace.retries
        c["lint.network_s"] += trace.network_lint_s
        c["lint.cone_s"] += sum(t.lint_s for t in trace.tasks)
    c["engine.degraded_cones"] += report.degraded_cones
    if report.lint is not None:
        c["lint.violations"] += report.lint.violations
    checker = report.checker
    if checker is not None:
        s = checker.stats
        c["identify.calls"] += s.calls
        c["identify.cache_hits"] += s.cache_hits
        c["identify.fastpath_hits"] += s.fastpath_hits
        c["identify.fastpath_negatives"] += s.fastpath_negatives
        c["identify.fastpath_misses"] += s.fastpath_misses
        c["identify.ilp_solves"] += s.ilp_solved
        c["identify.ilp_feasible"] += s.ilp_feasible
        c["ilp.exact_solves"] += s.exact_solves
        c["ilp.exact_s"] += s.exact_wall_s
        c["ilp.scipy_solves"] += s.scipy_solves
        c["ilp.scipy_s"] += s.scipy_wall_s
        c["ilp.presolve_rows_removed"] += s.presolve_rows_removed
        c["gates.multithreshold_hits"] += s.multithreshold_hits
        c["gates.flash_requantized"] += s.flash_requantized
        if checker.store is not None:
            c["engine.store.vector_hits"] += checker.store.stats.vector_hits
            c["engine.store.vector_misses"] += checker.store.stats.vector_misses
    return c


#: Durations reported by the program, charged as leaves of the synth span.
SYNTH_LEAVES = {
    "lint.cone": "lint.cone_s",
    "lint.network": "lint.network_s",
    "ilp.exact": "ilp.exact_s",
    "ilp.scipy": "ilp.scipy_s",
}


def instrument(rec: Recorder) -> dict:
    """Patch span-recording wrappers over the layers' public functions.

    Returns probes the caller reads after the run (``scc_calls``).  The
    synth wrapper also charges the lint and ILP durations the report holds
    as leaves of its span, and keeps the report's counters on the span.
    """
    blif.parse_blif = rec.wrap("io.parse", blif.parse_blif)
    thblif.to_thblif = rec.wrap("io.write", thblif.to_thblif)
    scripts.prepare_tels = rec.wrap("network.prep", scripts.prepare_tels)
    scripts.prepare_one_to_one = rec.wrap(
        "network.prep_boolean", scripts.prepare_one_to_one
    )
    for step in PREP_STEPS:
        setattr(scripts, step, rec.wrap(f"network.{step}", getattr(scripts, step)))
    mapping.one_to_one_map = rec.wrap("mapping", mapping.one_to_one_map)
    verify.verify_threshold_network = rec.wrap(
        "verify", verify.verify_threshold_network
    )
    original = synthesis.synthesize_with_report

    def synthesize_with_report(*args, **kwargs):
        with rec.span("engine.synth") as record:
            network, report = original(*args, **kwargs)
        counts = report_counts(report)
        for leaf, key in SYNTH_LEAVES.items():
            if counts[key]:
                record.leaves[leaf] = counts[key]
        record.counts.update(counts)
        return network, report

    synthesis.synthesize_with_report = synthesize_with_report
    scc_calls = rec.time_method(Cover, "scc", "boolean.scc")
    return {"scc_calls": scc_calls}


@dataclass
class Job:
    """One circuit through one flow: what a ``tels`` command does."""

    circuit: str
    flow: str
    seconds: float = 0.0
    error: str | None = None
    exhaustive: bool = False
    gates: int = 0
    levels: int = 0
    area: int = 0
    output_sha: str = ""
    counts: Counter = field(default_factory=Counter)
    cone_wall_s: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def _verify(source, network, job: Job) -> None:
    job.exhaustive = len(source.inputs) <= EXHAUSTIVE_LIMIT
    if not verify.verify_threshold_network(source, network):
        job.error = "verify failed"


def tels_flow(circuit, seed: int, gate_model: str = "ltg") -> Job:
    """``tels synth``: parse, prep, synthesize (lint on), verify, write."""
    job = Job(circuit.name, gate_model)
    start = time.perf_counter()
    source = blif.parse_blif(circuit.blif)
    prepared = scripts.prepare_tels(source)
    options = synthesis.SynthesisOptions(
        psi=circuit.psi,
        seed=seed,
        gate_model=gate_model,
        preserve_sharing=circuit.preserve_sharing,
    )
    network, report = synthesis.synthesize_with_report(prepared, options)
    _verify(source, network, job)
    text = thblif.to_thblif(network)
    job.seconds = time.perf_counter() - start
    prep = boolean_stats(prepared)
    job.counts["network.prep_nodes"] += prep.gates
    job.counts["network.prep_literals"] += prep.area
    job.counts.update(report_counts(report))
    job.cone_wall_s = [t.wall_s for t in report.trace.tasks]
    if report.lint is not None and report.lint.violations:
        job.error = job.error or f"{report.lint.violations} lint violation(s)"
    if report.degraded_cones:
        job.error = job.error or f"{report.degraded_cones} degraded cone(s)"
    stats = network_stats(network)
    job.gates, job.levels, job.area = stats.gates, stats.levels, stats.area
    job.output_sha = hashlib.sha256(text.encode()).hexdigest()
    return job


def o2o_flow(circuit) -> Job:
    """``tels map``: parse, ``script_boolean`` prep, one-to-one map, verify."""
    job = Job(circuit.name, "o2o")
    start = time.perf_counter()
    source = blif.parse_blif(circuit.blif)
    prepared = scripts.prepare_one_to_one(source, max_fanin=circuit.psi)
    network = mapping.one_to_one_map(prepared)
    _verify(source, network, job)
    job.seconds = time.perf_counter() - start
    job.counts["network.prep_boolean_nodes"] += boolean_stats(prepared).gates
    stats = network_stats(network)
    job.gates, job.levels, job.area = stats.gates, stats.levels, stats.area
    job.output_sha = hashlib.sha256(thblif.to_thblif(network).encode()).hexdigest()
    return job


def run_job(circuit, flow: str, seed: int, rec: Recorder | None) -> Job:
    """One job: ``flow`` is ``o2o`` or a gate model for the TELS flow.

    An exception fails the job, not the workload.
    """
    try:
        if rec is None:
            return _run_job(circuit, flow, seed)
        with rec.span("circuit", circuit=f"{circuit.name}/{flow}"):
            return _run_job(circuit, flow, seed)
    except Exception as exc:  # any error is a failed job, reported by name
        return Job(circuit.name, flow, error=f"{type(exc).__name__}: {exc}")


def _run_job(circuit, flow: str, seed: int) -> Job:
    return o2o_flow(circuit) if flow == "o2o" else tels_flow(circuit, seed, flow)


def run_pass(workload: str, circuits, seed: int, rec: Recorder | None) -> list[Job]:
    """One pass of an in-process workload, in its fixed order."""
    if workload == "corpus":
        plan = [(c, "ltg") for c in circuits]
    elif workload in ("mcnc10", "i10"):
        plan = [(c, flow) for c in circuits for flow in ("o2o", "ltg")]
    elif workload == "models":
        plan = [(c, model) for model in GATE_MODELS for c in circuits]
    else:
        raise ValueError(f"not an in-process workload: {workload}")
    return [run_job(c, flow, seed, rec) for c, flow in plan]


def summarize(jobs: list[Job], flow_s: float) -> dict:
    """End-to-end figures and the deterministic counters of one pass."""
    tels_jobs = [j for j in jobs if j.flow != "o2o"]
    o2o_jobs = [j for j in jobs if j.flow == "o2o"]
    seconds = [j.seconds for j in jobs]
    e2e = {
        "flow_s": flow_s,
        "gates": sum(j.gates for j in tels_jobs),
        "levels": sum(j.levels for j in tels_jobs),
        "area": sum(j.area for j in tels_jobs),
        "jobs_per_s": len(jobs) / flow_s,
        "jobs_p50_s": statistics.median(seconds),
        "jobs_tail_s": tail(seconds),
    }
    counts: Counter = Counter()
    cone_wall: list[float] = []
    for j in jobs:
        counts.update(j.counts)
        cone_wall.extend(j.cone_wall_s)
    counts["verify.exhaustive_circuits"] = sum(j.exhaustive for j in jobs if j.ok)
    counts["verify.sampled_circuits"] = sum(not j.exhaustive for j in jobs if j.ok)
    counts["mapping.gates"] = sum(j.gates for j in o2o_jobs)
    counts["mapping.area"] = sum(j.area for j in o2o_jobs)
    for model in GATE_MODELS:
        mj = [j for j in tels_jobs if j.flow == model]
        counts[f"gates.{model}.gates"] = sum(j.gates for j in mj)
        counts[f"gates.{model}.area"] = sum(j.area for j in mj)
    # Sorted, so that the digest does not depend on completion order.
    outputs = hashlib.sha256()
    for line in sorted(f"{j.circuit}/{j.flow}:{j.output_sha}" for j in jobs):
        outputs.update(line.encode() + b"\n")
    return {
        "e2e": e2e,
        "counts": dict(counts),
        "cone_wall_s": cone_wall,
        "outputs_sha": outputs.hexdigest(),
    }
