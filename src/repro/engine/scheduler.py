"""The work-queue scheduler driving the pass-based synthesis engine.

``run_synthesis`` plans one task per primary-output cone, runs the queued
tasks one at a time in-process, and turns every newly *discovered* root (a
preserved or collapse-blocked node some finished cone's gates read) into a
new task exactly once.  When the queue drains, the per-task gate lists are
merged into one :class:`ThresholdNetwork` by a deterministic DFS over the
task graph — primary outputs in declaration order, then each task's
discovered roots in discovery order.

The scheduler is also where the resilience policy is applied (see
docs/RESILIENCE.md): transient errors retry with backoff up to
``max_attempts``, and deadline expiries degrade immediately.  A degraded
cone is realized with the paper's one-to-one mapping
(:func:`~repro.engine.resilience.fallback_cone_gates`), so
``run_synthesis`` always returns a complete, simulation-equivalent,
lint-clean network — unless ``strict_synthesis`` turns degradation into a
:class:`~repro.errors.SynthesisError`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.core.identify import ThresholdChecker
from repro.core.threshold import ThresholdNetwork
from repro.engine.cone import ConeSynthesizer
from repro.engine.events import EngineTrace, TaskMetrics
from repro.engine.resilience import (
    Deadline,
    DegradedCone,
    ResiliencePolicy,
    fallback_cone_gates,
)
from repro.engine.store import ResultStore
from repro.engine.tasks import (
    SynthTask,
    TaskResult,
    plan_initial_tasks,
    preserved_set,
)
from repro.errors import (
    DeadlineExceeded,
    SynthesisCancelled,
    SynthesisError,
    TransientError,
)
from repro.faults.injector import get_injector
from repro.network.network import BooleanNetwork


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
    initial = plan_initial_tasks(network)
    policy = ResiliencePolicy.from_options(options)
    total_deadline = Deadline.after(policy.deadline_total_s)
    # Validate TELS_CHAOS up front: a malformed spec must fail the run
    # loudly, not lie dormant until (or unless) an injection site fires.
    get_injector()

    started = time.perf_counter()
    trace = EngineTrace(gate_model=getattr(options, "gate_model", "ltg"))
    tasks: dict[str, SynthTask] = {}
    results: dict[str, TaskResult] = {}
    #: FIFO of (task, attempt): retries and discovered roots join the back.
    queue: deque[tuple[SynthTask, int]] = deque()
    degraded_records: list[DegradedCone] = []
    listener = on_event

    def _emit(payload: dict) -> None:
        nonlocal listener
        if listener is None:
            return
        try:
            listener(payload)
        except Exception:
            listener = None  # a broken listener must never fail the run

    def _register(result: TaskResult, submit_new: bool = True) -> None:
        results[result.task_id] = result
        trace.add(result.metrics)
        for event in result.metrics.events():
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
                "task_id": result.task_id,
                "gates": result.metrics.gates_emitted,
                "degraded": result.metrics.degraded,
                "completed": len(results),
                "scheduled": len(tasks),
            }
        )
        for root in result.discovered:
            if root not in tasks:
                task = SynthTask.for_root(root, requested_by=result.task_id)
                tasks[task.task_id] = task
                if submit_new:
                    queue.append((task, 1))

    def _degrade(
        task_id: str,
        reason: str,
        attempts: int,
        detail: str = "",
        submit_new: bool = True,
    ) -> None:
        """Resolve a failed cone with the one-to-one fallback mapping."""
        if policy.strict:
            raise SynthesisError(
                f"cone {task_id!r} failed ({reason}"
                + (f": {detail}" if detail else "")
                + ") and strict synthesis forbids degradation"
            )
        gates, discovered = fallback_cone_gates(
            network, tasks[task_id].root, preserved, options, checker=checker
        )
        metrics = TaskMetrics(
            task_id=task_id,
            gates_emitted=len(gates),
            attempts=attempts,
            degraded=True,
        )
        degraded_records.append(
            DegradedCone(task_id, reason, attempts, detail)
        )
        trace.degraded.append((task_id, reason))
        _emit({"event": "task-degraded", "task_id": task_id, "reason": reason})
        _register(
            TaskResult(
                task_id=task_id,
                gates=gates,
                discovered=discovered,
                metrics=metrics,
                degraded=True,
                attempts=attempts,
            ),
            submit_new=submit_new,
        )

    def _run_task(task: SynthTask, attempt: int) -> None:
        """One cone run; a failure retries, degrades, or propagates."""
        try:
            result = ConeSynthesizer(
                network,
                task.root,
                options,
                checker,
                preserved,
                deadline=Deadline.after(policy.deadline_per_cone_s),
            ).run()
        except DeadlineExceeded as exc:
            _degrade(task.task_id, "deadline", attempt, str(exc))
        except TransientError as exc:
            if attempt >= policy.max_attempts:
                _degrade(task.task_id, "retry-exhausted", attempt, str(exc))
            else:
                trace.retries += 1
                time.sleep(policy.retry.backoff_s(attempt, key=task.task_id))
                queue.append((task, attempt + 1))
        else:
            result.attempts = result.metrics.attempts = attempt
            _register(result)

    try:
        for task in initial:
            tasks[task.task_id] = task
            queue.append((task, 1))
        while queue:
            if cancel is not None and cancel.is_set():
                # Cooperative cancellation, observed only between cones.
                raise SynthesisCancelled(
                    f"cancelled with {len(tasks) - len(results)} of "
                    f"{len(tasks)} cones unfinished"
                )
            if total_deadline is not None and total_deadline.expired:
                # Whole-run budget exhausted: every unfinished cone —
                # including roots the fallbacks themselves discover —
                # degrades to the one-to-one mapping.
                queue.clear()
                while len(results) < len(tasks):
                    for task_id in list(tasks):
                        if task_id not in results:
                            _degrade(
                                task_id,
                                "total-deadline",
                                1,
                                submit_new=False,
                            )
                break
            _run_task(*queue.popleft())
    except SynthesisCancelled:
        # A cancelled run still banks its work: everything solved so far
        # goes to the persistent tier for the next submission to reuse.
        store.flush_persistent()
        raise
    trace.wall_s = time.perf_counter() - started
    store.flush_persistent()

    result_net = _assemble(network, initial, results)
    report = _build_report(options, checker, trace, results)
    report.degraded_cones = len(degraded_records)
    report.degraded = tuple(degraded_records)
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


def _assemble(
    network: BooleanNetwork,
    initial: list[SynthTask],
    results: dict[str, TaskResult],
) -> ThresholdNetwork:
    """Merge per-task gates into one network, in canonical task order."""
    result_net = ThresholdNetwork(network.name + "_th")
    for pi in network.inputs:
        result_net.add_input(pi)
    for out in network.outputs:
        result_net.add_output(out)
    visited: set[str] = set()
    stack = [task.task_id for task in reversed(initial)]
    while stack:
        task_id = stack.pop()
        if task_id in visited:
            continue
        visited.add(task_id)
        result = results.get(task_id)
        if result is None:
            raise SynthesisError(f"task {task_id!r} was never completed")
        for gate in result.gates:
            result_net.add_gate(gate)
        stack.extend(reversed(result.discovered))
    result_net.cleanup()
    result_net.check()
    return result_net


def _build_report(
    options,
    checker: ThresholdChecker,
    trace: EngineTrace,
    results: dict[str, TaskResult],
):
    """Aggregate per-task metrics into the façade's SynthesisReport."""
    from repro.core.synthesis import SynthesisReport

    report = SynthesisReport(checker=checker, trace=trace)
    for result in results.values():
        m = result.metrics
        report.nodes_processed += m.nodes_processed
        report.gates_emitted += m.gates_emitted
        report.binate_splits += m.binate_splits
        report.unate_splits += m.unate_splits
        report.kway_splits += m.kway_splits
        report.theorem2_applications += m.theorem2_applications
        report.and_factor_splits += m.and_factor_splits
    return report
