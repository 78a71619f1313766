"""The pass-based TELS synthesis engine.

Four layers, bottom to top:

* :mod:`repro.engine.store` — the **shared result store**: canonical-cover
  keyed caches (delta-independent analyses + solved vectors) shared across
  tasks, outputs, runs, and experiment sweeps.
* :mod:`repro.engine.tasks` — the **task layer**: each preserved node /
  primary-output cone becomes an explicit :class:`SynthTask`; cones discover
  their dependencies (the preserved or collapse-blocked nodes their gates
  read) while they run.
* :mod:`repro.engine.scheduler` — the **scheduler**: runs the queued cone
  tasks in-process, one at a time, and merges their results
  deterministically (stable task ids, per-task seeded RNG streams).
* :mod:`repro.engine.events` — the **instrumentation layer**: structured
  per-task events (collapse/check/split timings, cache hit rates) aggregated
  into an :class:`EngineTrace` for the CLI and the experiment reports.

``repro.core.synthesis`` is a thin compatibility façade over
:func:`run_synthesis`.

This ``__init__`` must stay import-light: ``repro.core.identify`` imports
:mod:`repro.engine.store` at runtime, so importing the scheduler here
would create a cycle.  Heavy symbols resolve lazily via ``__getattr__``.
"""

from __future__ import annotations

from repro.engine.store import (
    CoverAnalysis,
    ResultStore,
    StoreStats,
)

__all__ = [
    "CoverAnalysis",
    "ResultStore",
    "StoreStats",
    "EngineTrace",
    "TaskEvent",
    "TaskMetrics",
    "SynthTask",
    "TaskResult",
    "EngineResult",
    "run_synthesis",
]

_LAZY = {
    "EngineTrace": "repro.engine.events",
    "TaskEvent": "repro.engine.events",
    "TaskMetrics": "repro.engine.events",
    "SynthTask": "repro.engine.tasks",
    "TaskResult": "repro.engine.tasks",
    "EngineResult": "repro.engine.scheduler",
    "run_synthesis": "repro.engine.scheduler",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
