"""The pass-based TELS synthesis engine.

Five modules, bottom to top:

* :mod:`repro.engine.store` — the **shared result store**: canonical-cover
  keyed caches (delta-independent analyses + solved vectors) shared across
  cones, outputs, runs, and experiment sweeps.
* :mod:`repro.engine.cone` — **one cone**: the collapse → check → split
  recursion for the cone rooted at one preserved or primary-output node;
  it reports the preserved or collapse-blocked nodes its gates read.
* :mod:`repro.engine.resilience` — **deadlines and degradation**: the
  cooperative :class:`~repro.engine.resilience.Deadline` and the one-to-one
  fallback for a cone that ran out of time.
* :mod:`repro.engine.scheduler` — the **scheduler**: a FIFO of cone roots
  run in-process, one at a time; discovered roots join the queue once, and
  the results merge deterministically (root-named cones, per-cone seeded
  RNG streams).
* :mod:`repro.engine.events` — the **instrumentation layer**: structured
  per-cone events (collapse/check/split timings, cache hit rates) aggregated
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
    "EngineResult",
    "run_synthesis",
]

_LAZY = {
    "EngineTrace": "repro.engine.events",
    "TaskEvent": "repro.engine.events",
    "TaskMetrics": "repro.engine.events",
    "EngineResult": "repro.engine.scheduler",
    "run_synthesis": "repro.engine.scheduler",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
