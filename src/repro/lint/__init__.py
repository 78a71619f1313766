"""Static verification and lint framework over threshold networks.

Two rule families audit a :class:`~repro.core.threshold.ThresholdNetwork`
without simulating it end to end: **structural** rules (cycles, dangling
fanins, undriven outputs, unreachable gates, fanin over ψ, duplicate gate
bodies) and **semantic** rules (per-gate margin re-verification against the
claimed ``delta_on``/``delta_off``, weight-sign/unateness consistency,
threshold bound checks, and — given the source network — full functional
equivalence).  See ``docs/LINT.md`` for the rule catalog.

Entry points:

* :func:`run_lint` — the library API (CLI, engine post-pass, experiments);
* :mod:`repro.lint.emitters` — text / JSON / SARIF 2.1.0 renderers.
"""

from repro.lint.diagnostics import (
    EXIT_CLEAN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    Diagnostic,
    LintOptions,
    LintReport,
    Severity,
)
from repro.lint.emitters import (
    format_json,
    format_sarif,
    format_text,
    render,
    to_json,
    to_sarif,
)
from repro.lint.rules import (
    LintRule,
    get_rule,
    parse_diagnostic,
    registered_rules,
)
from repro.lint.runner import run_lint, select_rules

__all__ = [
    "EXIT_CLEAN",
    "EXIT_USAGE",
    "EXIT_VIOLATIONS",
    "Diagnostic",
    "LintOptions",
    "LintReport",
    "LintRule",
    "Severity",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "parse_diagnostic",
    "registered_rules",
    "render",
    "run_lint",
    "select_rules",
    "to_json",
    "to_sarif",
]
