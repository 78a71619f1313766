"""The work-queue scheduler driving the pass-based synthesis engine.

The preserved-fanout DAG of the prepared network (Section V-A) partitions
synthesis into independent *cones*: one rooted at every primary-output node,
one at every preserved fanout node, and one at every node collapsing had to
stop at (a ψ- or cube-budget violation).  A cone is named by its root.

``run_synthesis`` queues the primary-output roots, runs the queued cones one
at a time in-process, and queues every newly *discovered* root (a preserved
or collapse-blocked node some finished cone's gates read) exactly once.
When the queue drains, the per-cone gate lists are merged into one
:class:`ThresholdNetwork` by a deterministic DFS over the cone graph —
primary outputs in declaration order, then each cone's discovered roots in
discovery order.

The scheduler also applies the resilience rules (see docs/RESILIENCE.md):
a cone whose per-cone deadline expires degrades at once, and on expiry of
the total deadline every unfinished cone degrades.  A degraded cone is
realized with the paper's one-to-one mapping
(:func:`~repro.engine.resilience.fallback_cone_gates`), so
``run_synthesis`` always returns a complete, simulation-equivalent,
lint-clean network — unless ``strict_synthesis`` turns degradation into a
:class:`~repro.errors.SynthesisError`.  Cancellation is observed between
cones.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.core.identify import ThresholdChecker
from repro.core.threshold import ThresholdGate, ThresholdNetwork
from repro.engine.cone import ConeSynthesizer
from repro.engine.events import EngineTrace, TaskMetrics
from repro.engine.resilience import (
    Deadline,
    DegradedCone,
    fallback_cone_gates,
)
from repro.engine.store import ResultStore
from repro.errors import DeadlineExceeded, SynthesisCancelled, SynthesisError
from repro.faults.injector import get_injector
from repro.network.network import BooleanNetwork


#: A finished cone: its gates and the roots its gates read.
ConeResult = tuple[tuple[ThresholdGate, ...], tuple[str, ...]]


@dataclass
class EngineResult:
    """A finished engine run: the network plus everything we measured."""

    network: ThresholdNetwork
    report: "SynthesisReport"  # repro.core.synthesis.SynthesisReport
    trace: EngineTrace
    store: ResultStore


def run_synthesis(
    network: BooleanNetwork,
    options=None,
    store: ResultStore | None = None,
    cache_dir: str | None = None,
    on_event=None,
    cancel=None,
) -> EngineResult:
    """Synthesize ``network`` with the pass-based engine.

    Args:
        network: a prepared (ideally algebraically-factored) Boolean network.
        options: :class:`repro.core.synthesis.SynthesisOptions`.
        store: a shared :class:`ResultStore` to read and extend — pass the
            same store across sweep points to re-solve only what changed.
        cache_dir: directory of the persistent NP-canonical cache; ignored
            when ``store`` is given (attach the cache to the store instead).
            New solves are flushed back to disk when the run completes.
        on_event: optional callable receiving structured progress events as
            plain dicts — one ``{"event": "phase", ...}`` per pass of every
            finished cone (from :meth:`TaskMetrics.events`), a
            ``"task-done"`` row with completion counts per cone, and a
            ``"task-degraded"`` marker per fallback.  A listener exception
            disables further delivery but never fails the run; the daemon
            (``repro.serve``) taps this for live job streaming.
        cancel: optional cooperative cancellation flag (anything with an
            ``is_set()`` method, e.g. :class:`threading.Event`).  The flag
            is checked between cones; when observed set,
            :class:`~repro.errors.SynthesisCancelled` is raised.
    """
    from repro.core.synthesis import SynthesisOptions

    options = options or SynthesisOptions()
    if store is None:
        store = (
            ResultStore.with_cache_dir(cache_dir)
            if cache_dir is not None
            else ResultStore()
        )
    checker = ThresholdChecker.from_options(options, store=store)
    preserved = preserved_set(network, options.preserve_sharing)
    # One cone per primary-output node, in declaration order; further
    # roots are discovered as cones complete.
    outputs = list(
        dict.fromkeys(o for o in network.outputs if network.has_node(o))
    )
    total_deadline = Deadline.after(options.deadline_total_s)
    # Validate TELS_CHAOS up front: a malformed spec must fail the run
    # loudly, not lie dormant until (or unless) an injection site fires.
    get_injector()

    started = time.perf_counter()
    trace = EngineTrace(gate_model=getattr(options, "gate_model", "ltg"))
    #: Every root ever queued, in queueing order.
    scheduled: dict[str, None] = dict.fromkeys(outputs)
    results: dict[str, ConeResult] = {}
    #: FIFO of cone roots: discovered roots join the back.
    queue: deque[str] = deque(outputs)
    degraded: list[DegradedCone] = []
    listener = on_event

    def _emit(payload: dict) -> None:
        nonlocal listener
        if listener is None:
            return
        try:
            listener(payload)
        except Exception:
            listener = None  # a broken listener must never fail the run

    def _register(
        root: str,
        gates: tuple[ThresholdGate, ...],
        discovered: tuple[str, ...],
        metrics: TaskMetrics,
        submit_new: bool = True,
    ) -> None:
        results[root] = (gates, discovered)
        trace.add(metrics)
        for event in metrics.events():
            _emit(
                {
                    "event": "phase",
                    "task_id": event.task_id,
                    "phase": event.phase,
                    "seconds": round(event.seconds, 6),
                    "detail": event.detail,
                }
            )
        _emit(
            {
                "event": "task-done",
                "task_id": root,
                "gates": metrics.gates_emitted,
                "degraded": metrics.degraded,
                "completed": len(results),
                "scheduled": len(scheduled),
            }
        )
        for found in discovered:
            if found not in scheduled:
                scheduled[found] = None
                if submit_new:
                    queue.append(found)

    def _degrade(
        root: str, reason: str, detail: str = "", submit_new: bool = True
    ) -> None:
        """Resolve a failed cone with the one-to-one fallback mapping."""
        if options.strict_synthesis:
            raise SynthesisError(
                f"cone {root!r} failed ({reason}"
                + (f": {detail}" if detail else "")
                + ") and strict synthesis forbids degradation"
            )
        gates, discovered = fallback_cone_gates(
            network, root, preserved, options, checker=checker
        )
        metrics = TaskMetrics(
            task_id=root, gates_emitted=len(gates), degraded=True
        )
        degraded.append(DegradedCone(root, reason, detail))
        _emit({"event": "task-degraded", "task_id": root, "reason": reason})
        _register(root, gates, discovered, metrics, submit_new=submit_new)

    def _run_cone(root: str) -> None:
        """One cone run; a deadline expiry degrades, anything else
        propagates."""
        try:
            gates, discovered, metrics = ConeSynthesizer(
                network,
                root,
                options,
                checker,
                preserved,
                deadline=Deadline.after(options.deadline_per_cone_s),
            ).run()
        except DeadlineExceeded as exc:
            _degrade(root, "deadline", str(exc))
        else:
            _register(root, gates, discovered, metrics)

    try:
        while queue:
            if cancel is not None and cancel.is_set():
                # Cooperative cancellation, observed only between cones.
                raise SynthesisCancelled(
                    f"cancelled with {len(scheduled) - len(results)} of "
                    f"{len(scheduled)} cones unfinished"
                )
            if total_deadline is not None and total_deadline.expired:
                # Whole-run budget exhausted: every unfinished cone —
                # including roots the fallbacks themselves discover —
                # degrades to the one-to-one mapping.
                queue.clear()
                while len(results) < len(scheduled):
                    for root in list(scheduled):
                        if root not in results:
                            _degrade(root, "total-deadline", submit_new=False)
                break
            _run_cone(queue.popleft())
    except SynthesisCancelled:
        # A cancelled run still banks its work: everything solved so far
        # goes to the persistent tier for the next submission to reuse.
        store.flush_persistent()
        raise
    trace.wall_s = time.perf_counter() - started
    store.flush_persistent()

    result_net = _assemble(network, outputs, results)
    report = _build_report(checker, trace)
    report.degraded = tuple(degraded)
    if getattr(options, "lint", True):
        # The engine's one lint pass, over the assembled network: the same
        # call `tels lint` makes, structural and gate-local rules together.
        from repro.lint.diagnostics import LintOptions
        from repro.lint.runner import run_lint

        lint_report = run_lint(
            result_net,
            LintOptions(
                psi=options.psi,
                gate_model=getattr(options, "gate_model", "ltg"),
            ),
        )
        report.lint = lint_report
        trace.network_lint_violations = lint_report.violations
        trace.network_lint_s = lint_report.wall_s
    if getattr(options, "analyze", False):
        # Whole-network dataflow post-pass: interval/don't-care fixpoints,
        # verified removal candidates, and the robustness certificate.
        from repro.analysis import AnalysisOptions, analyze_threshold_network

        analysis = analyze_threshold_network(
            result_net,
            AnalysisOptions(
                gate_model=getattr(options, "gate_model", "ltg")
            ),
        )
        report.analysis = analysis
        trace.network_analysis_s = analysis.wall_s
        trace.analysis_removals = len(analysis.verified_findings)
        trace.analysis_min_slack = analysis.certificate.min_slack
    return EngineResult(
        network=result_net, report=report, trace=trace, store=store
    )


def preserved_set(
    network: BooleanNetwork, preserve_sharing: bool
) -> frozenset[str]:
    """The sharing set S: primary-output nodes plus multi-reader fanout nodes.

    These are the collapse barriers of Fig. 4 and therefore the natural cone
    roots.
    """
    preserved: set[str] = set(
        o for o in network.outputs if network.has_node(o)
    )
    if preserve_sharing:
        for signal, readers in network.fanout_map().items():
            if network.has_node(signal):
                uses = len(readers) + (1 if network.is_output(signal) else 0)
                if uses >= 2:
                    preserved.add(signal)
    return frozenset(preserved)


def _assemble(
    network: BooleanNetwork,
    outputs: list[str],
    results: dict[str, ConeResult],
) -> ThresholdNetwork:
    """Merge per-cone gates into one network, in canonical cone order."""
    result_net = ThresholdNetwork(network.name + "_th")
    for pi in network.inputs:
        result_net.add_input(pi)
    for out in network.outputs:
        result_net.add_output(out)
    visited: set[str] = set()
    stack = list(reversed(outputs))
    while stack:
        root = stack.pop()
        if root in visited:
            continue
        visited.add(root)
        result = results.get(root)
        if result is None:
            raise SynthesisError(f"cone {root!r} was never completed")
        gates, discovered = result
        for gate in gates:
            result_net.add_gate(gate)
        stack.extend(reversed(discovered))
    result_net.cleanup()
    result_net.check()
    return result_net


def _build_report(checker: ThresholdChecker, trace: EngineTrace):
    """Aggregate per-cone metrics into the façade's SynthesisReport."""
    from repro.core.synthesis import SynthesisReport

    report = SynthesisReport(checker=checker, trace=trace)
    for m in trace.tasks:
        report.nodes_processed += m.nodes_processed
        report.gates_emitted += m.gates_emitted
        report.binate_splits += m.binate_splits
        report.unate_splits += m.unate_splits
        report.kway_splits += m.kway_splits
        report.theorem2_applications += m.theorem2_applications
        report.and_factor_splits += m.and_factor_splits
    return report
