"""Span recording from outside the program, for the traced run.

The untraced run calls the program's public functions directly.  The
traced run replaces those references with wrappers that record a span
(name, start, end, parent, circuit id) around each call; nothing under
``src/`` is changed.  Spans stay in memory and are written as JSON when the
run ends.

Besides spans there are *leaf times*: durations known without a span of
their own, charged to the span that was open when they were measured.
``Cover.scc`` is timed this way (it runs millions of times on the larger
networks, too often for a span each), and so are the durations the
program reports itself — per-cone and whole-network lint, exact and scipy
ILP solve time — read from its report objects after a synthesis call.

A layer's self time is its span's duration minus its child spans and its
leaf times; each leaf kind is a layer of its own.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    circuit: str | None
    start: float
    end: float = 0.0
    #: Seconds per leaf layer charged to this span.
    leaves: dict[str, float] = field(default_factory=dict)
    #: Counters the program reported for the call (synth spans).
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, circuit: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next
            self._next += 1
        if circuit is None and parent is not None:
            circuit = parent.circuit
        record = Span(span_id, parent.id if parent else None, name, circuit,
                      time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def leaf(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` of layer ``name`` to the innermost open span."""
        stack = self._stack()
        if stack:
            leaves = stack[-1].leaves
            leaves[name] = leaves.get(name, 0.0) + seconds

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def time_method(self, owner: type, attr: str, name: str) -> Callable:
        """Time every outermost call of ``owner.attr`` as leaf ``name``.

        Returns a function that reports the call count.
        """
        original = getattr(owner, attr)
        depth = threading.local()
        calls = [0]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            level = getattr(depth, "n", 0)
            depth.n = level + 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                depth.n = level
                if level == 0:
                    calls[0] += 1
                    self.leaf(name, time.perf_counter() - start)

        setattr(owner, attr, timed)
        return lambda: calls[0]

    def dump(self, path: Path) -> list[dict]:
        """Write the spans as JSON; returns them as dicts."""
        spans = [asdict(s) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spans))
        return spans


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it.

    With fewer than 44 samples that statistic falls below the upper
    quartile, which is reported instead (p79 of 15 samples, p87 of 80).
    """
    ordered = sorted(values)
    n = len(ordered)
    return ordered[max(n - 11, math.ceil(0.75 * n) - 1)]


def load_spans(path: Path) -> list[dict]:
    return json.loads(path.read_text())


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: ``self`` seconds, ``total`` (inclusive) seconds, ``count``."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    rows: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "count": 0}
    )
    for s in spans:
        duration = s["end"] - s["start"]
        leaves = s["leaves"]
        row = rows[s["name"]]
        row["total"] += duration
        row["count"] += 1
        row["self"] += duration - child_time[s["id"]] - sum(leaves.values())
        for leaf, seconds in leaves.items():
            rows[leaf]["self"] += seconds
            rows[leaf]["total"] += seconds
    return dict(rows)


def layer_table(
    spans: list[dict], covered_s: float, other_names: tuple[str, ...]
) -> list[tuple[str, float, float, float]]:
    """``(layer, self_s, share, total_s)`` rows covering ``covered_s``.

    The self time of the enclosing spans (``other_names``: the whole pass,
    one circuit) is what no layer span covers; it is reported as ``other``
    together with any time outside the root spans.
    """
    rows = self_times(spans)
    table = []
    other = covered_s
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
        if name in other_names:
            continue
        other -= row["self"]
        table.append((name, row["self"], row["self"] / covered_s, row["total"]))
    table.append(("other", other, other / covered_s, other))
    return table


def format_table(title: str, table, overhead_s: float | None) -> str:
    lines = [title, f"  {'layer':<24}{'self_s':>10}{'share':>9}{'total_s':>10}"]
    for name, self_s, share, total in table:
        lines.append(
            f"  {name:<24}{self_s:>10.3f}{100 * share:>8.1f}%{total:>10.3f}"
        )
    if overhead_s is not None:
        lines.append(f"  tracing overhead (traced - untraced flow_s): {overhead_s:+.3f} s")
    return "\n".join(lines)
