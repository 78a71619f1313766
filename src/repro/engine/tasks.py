"""The task layer: explicit per-cone synthesis tasks and their results.

The preserved-fanout DAG of the prepared network (Section V-A) partitions
synthesis into independent *cones*: one rooted at every primary-output node,
one at every preserved fanout node, and one at every node collapsing had to
stop at (a ψ- or cube-budget violation).  Each cone reads only the immutable
source network — split parts it creates are task-local — so cones are the
engine's unit of work.

Tasks are identified by their root name.  The id is the seed of the task's
private ``random.Random`` stream and the key the scheduler orders results
by, so the emitted gate list never depends on the order cones ran in.
Dependencies are *discovered*, not declared up front: a finished task
reports every work-network node its gates reference, and the scheduler
turns the unseen ones into new tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.threshold import ThresholdGate
from repro.engine.events import TaskMetrics
from repro.network.network import BooleanNetwork


@dataclass(frozen=True)
class SynthTask:
    """One schedulable unit: synthesize the cone rooted at ``root``.

    Attributes:
        task_id: stable identifier — the root node's name.
        root: node of the source network whose cone this task synthesizes.
        requested_by: the task that discovered this root (None for the
            primary-output tasks planned up front).
    """

    task_id: str
    root: str
    requested_by: str | None = None

    @staticmethod
    def for_root(root: str, requested_by: str | None = None) -> "SynthTask":
        return SynthTask(task_id=root, root=root, requested_by=requested_by)


@dataclass
class TaskResult:
    """Everything a finished cone task hands back to the scheduler.

    ``degraded`` marks a cone that the resilience layer completed with the
    paper's one-to-one fallback mapping (after a deadline or retry
    exhaustion) rather than full TELS synthesis; ``attempts`` is how many
    runs the cone consumed, so the trace can report retry pressure.
    """

    task_id: str
    gates: tuple[ThresholdGate, ...]
    discovered: tuple[str, ...]
    metrics: TaskMetrics
    degraded: bool = False
    attempts: int = 1


def preserved_set(
    network: BooleanNetwork, preserve_sharing: bool
) -> frozenset[str]:
    """The sharing set S: primary-output nodes plus multi-reader fanout nodes.

    These are the collapse barriers of Fig. 4 and therefore the natural cone
    roots of the task layer.
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


def plan_initial_tasks(network: BooleanNetwork) -> list[SynthTask]:
    """The up-front work queue: one task per primary-output node, in
    declaration order (further tasks are discovered as cones complete)."""
    tasks: list[SynthTask] = []
    seen: set[str] = set()
    for out in network.outputs:
        if network.has_node(out) and out not in seen:
            seen.add(out)
            tasks.append(SynthTask.for_root(out))
    return tasks
