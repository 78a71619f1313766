"""Deterministic fault injection and retry primitives.

``repro.faults`` is a leaf package (stdlib only) so every layer — the
engine, the persistent cache — can import it without cycles.  The chaos harness lives in :mod:`repro.faults.injector`; the
bounded-backoff retry helpers in :mod:`repro.faults.retry`.
"""

from repro.faults.injector import (
    CHAOS_ENV,
    ChaosSpec,
    FaultInjector,
    get_injector,
    parse_chaos_spec,
)
from repro.faults.retry import RetryPolicy, retry_call

__all__ = [
    "CHAOS_ENV",
    "ChaosSpec",
    "FaultInjector",
    "RetryPolicy",
    "get_injector",
    "parse_chaos_spec",
    "retry_call",
]
