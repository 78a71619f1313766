"""Table I: threshold synthesis results with fanin restriction 3.

For each benchmark, the one-to-one mapping columns (gates / levels / area)
and the TELS columns, plus the per-row and average gate reduction.  The
paper's reference numbers are included so the harness can print paper-vs-
measured side by side (absolute values differ — our benchmark stand-ins are
not the original MCNC netlists — but the relative shape should match: TELS
well below one-to-one except on the wiring-dominated ``tcon``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchgen.mcnc import benchmark_names
from repro.experiments.flows import FlowResult, run_flows

#: (gates, levels, area) columns of Table I in the paper.
PAPER_TABLE1: dict[str, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    "cm152a": ((28, 4, 99), (13, 4, 69)),
    "cordic": ((92, 9, 307), (39, 8, 219)),
    "cm85a": ((70, 8, 254), (16, 6, 158)),
    "comp": ((181, 12, 625), (70, 9, 435)),
    "cmb": ((41, 7, 142), (16, 7, 103)),
    "term1": ((397, 12, 1459), (144, 16, 787)),
    "pm1": ((49, 5, 176), (22, 3, 119)),
    "x1": ((428, 10, 1589), (144, 10, 968)),
    "i10": ((2874, 49, 10934), (1276, 47, 7261)),
    "tcon": ((24, 2, 80), (32, 2, 96)),
}


@dataclass
class Table1Row:
    """One benchmark's measured row next to the paper's reference row."""

    flow: FlowResult
    paper_one_to_one: tuple[int, int, int]
    paper_tels: tuple[int, int, int]

    @property
    def name(self) -> str:
        return self.flow.name

    @property
    def paper_reduction_percent(self) -> float:
        gates_before = self.paper_one_to_one[0]
        return 100.0 * (gates_before - self.paper_tels[0]) / gates_before


def run_table1(
    names: list[str] | None = None,
    psi: int = 3,
    seed: int = 0,
) -> list[Table1Row]:
    """Regenerate Table I (both flows on every benchmark, ψ = ``psi``)."""
    if names is None:
        names = benchmark_names()
    rows = []
    for name in names:
        flow = run_flows(name, psi=psi, seed=seed)
        paper_oto, paper_tels = PAPER_TABLE1.get(name, ((0, 0, 0), (0, 0, 0)))
        rows.append(Table1Row(flow, paper_oto, paper_tels))
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    """Render the measured table (with paper reference) as aligned text."""
    header = (
        f"{'benchmark':10s} | {'one-to-one (ours)':>22s} | {'TELS (ours)':>22s} "
        f"| {'red%':>6s} | {'paper red%':>10s}"
    )
    lines = [header, "-" * len(header)]
    total_before = total_after = 0
    for row in rows:
        a, b = row.flow.one_to_one_stats, row.flow.tels_stats
        total_before += a.gates
        total_after += b.gates
        lines.append(
            f"{row.name:10s} | g={a.gates:5d} l={a.levels:3d} a={a.area:6d} "
            f"| g={b.gates:5d} l={b.levels:3d} a={b.area:6d} "
            f"| {row.flow.gate_reduction_percent:5.1f} "
            f"| {row.paper_reduction_percent:9.1f}"
        )
    if total_before:
        overall = 100.0 * (total_before - total_after) / total_before
        mean = sum(r.flow.gate_reduction_percent for r in rows) / len(rows)
        lines.append(
            f"{'TOTAL':10s} | g={total_before:5d}{'':16s} | "
            f"g={total_after:5d}{'':16s} | {overall:5.1f} | mean {mean:4.1f}"
        )
    return "\n".join(lines)
