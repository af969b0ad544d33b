"""Formatting and CSV persistence of benchmark rows.

Renders the paper-style series (one line per parameter value, with the
two algorithms side by side and the efficient-over-baseline speedup),
the Markdown tables and number formats of the generated report, and
the CSV that ``ifls bench --out`` writes next to its text output.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .experiments import Row


def group_rows(
    rows: Iterable[Row],
) -> "OrderedDict[tuple, Dict[str, Row]]":
    """Group rows by configuration key → {algorithm: row}."""
    grouped: "OrderedDict[tuple, Dict[str, Row]]" = OrderedDict()
    for row in rows:
        grouped.setdefault(row.key(), {})[row.algorithm] = row
    return grouped


def _fmt_value(parameter: str, value: float) -> str:
    if parameter == "|C|" and value >= 1000:
        return f"{value / 1000:g}k"
    return f"{value:g}"


def format_series(
    rows: Sequence[Row],
    metric: str = "time",
    title: str = "",
) -> str:
    """Render a paper-style text table for ``time`` or ``memory``."""
    if metric not in ("time", "memory"):
        raise ValueError(f"unknown metric {metric!r}")
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    grouped = group_rows(rows)
    current_header: Optional[Tuple[str, str, str]] = None
    for key, by_algorithm in grouped.items():
        experiment, venue, setting, parameter, value = key
        header = (venue, setting, parameter)
        if header != current_header:
            current_header = header
            lines.append("")
            lines.append(f"-- {venue} ({setting}), varying {parameter} --")
            algorithms = list(by_algorithm)
            unit = "s" if metric == "time" else "MB"
            cols = "  ".join(f"{a:>18}" for a in algorithms)
            lines.append(f"{parameter:>8}  {cols}  {'speedup':>8}")
        algorithms = list(by_algorithm)
        cells = []
        for algorithm in algorithms:
            row = by_algorithm[algorithm]
            figure = (
                row.time_seconds if metric == "time" else row.memory_mb
            )
            cells.append(f"{figure:>16.4f}{'s' if metric == 'time' else 'M'} ")
        speedup = _speedup(by_algorithm, metric)
        lines.append(
            f"{_fmt_value(parameter, value):>8}  "
            + "  ".join(cells)
            + f"  {speedup:>8}"
        )
    return "\n".join(lines)


def _speedup(by_algorithm: Dict[str, Row], metric: str) -> str:
    """Efficient-over-baseline ratio when both are present."""
    base = by_algorithm.get("baseline")
    fast = by_algorithm.get("efficient")
    if base is None or fast is None:
        return "-"
    if metric == "time":
        num, den = base.time_seconds, fast.time_seconds
    else:
        num, den = base.memory_mb, fast.memory_mb
    if den <= 0:
        return "-"
    return f"{num / den:.2f}x"


def summarize_speedups(rows: Sequence[Row]) -> Dict[str, Tuple[float, float]]:
    """Per (venue, setting) mean and max time speedup of efficient."""
    grouped = group_rows(rows)
    accum: Dict[str, List[float]] = {}
    for key, by_algorithm in grouped.items():
        base = by_algorithm.get("baseline")
        fast = by_algorithm.get("efficient")
        if base is None or fast is None or fast.time_seconds <= 0:
            continue
        label = f"{key[1]}/{key[2]}"
        accum.setdefault(label, []).append(
            base.time_seconds / fast.time_seconds
        )
    return {
        label: (sum(vals) / len(vals), max(vals))
        for label, vals in accum.items()
    }


# ---------------------------------------------------------------------------
# Markdown rendering (used by repro.bench.report)
# ---------------------------------------------------------------------------
def markdown_table(
    header: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Render a GitHub-flavoured Markdown table, deterministically.

    Cells are written verbatim (callers format values with the ``fmt_*``
    helpers below so every number in a generated report flows through
    one formatting path); column count follows the header.
    """
    lines = [
        "| " + " | ".join(str(cell) for cell in header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(cell) for cell in row) + " |"
        )
    return "\n".join(lines)


def fmt_seconds(value: float) -> str:
    """Wall seconds with enough precision for small-scale runs."""
    return f"{value:.4g} s"


def fmt_mb(value: float) -> str:
    """Peak traced memory in MB."""
    return f"{value:.2f} MB"


def fmt_count(value: float) -> str:
    """Exact counter value (thousands separated)."""
    return f"{int(value):,}"


def fmt_ratio(numerator: float, denominator: float) -> str:
    """``numerator / denominator`` as a speedup factor, or ``—``."""
    if denominator <= 0:
        return "—"
    return f"{numerator / denominator:.2f}×"


def fmt_param(parameter: str, value: float) -> str:
    """Axis label for a swept parameter value (``10k`` style for |C|)."""
    return _fmt_value(parameter, value)


def read_csv(path: Path) -> List[Row]:
    """Load rows previously persisted with :func:`write_csv`."""
    rows: List[Row] = []
    with open(path) as handle:
        for record in csv.DictReader(handle):
            rows.append(
                Row(
                    experiment=record["experiment"],
                    venue=record["venue"],
                    setting=record["setting"],
                    parameter=record["parameter"],
                    value=float(record["value"]),
                    algorithm=record["algorithm"],
                    time_seconds=float(record["time_seconds"]),
                    memory_mb=float(record["memory_mb"]),
                    objective=(
                        float(record["objective"])
                        if record["objective"]
                        else None
                    ),
                    clients=int(record["clients"]),
                )
            )
    return rows


def write_csv(rows: Iterable[Row], path: Path) -> None:
    """Persist rows as CSV (one line per configuration x algorithm)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "experiment", "venue", "setting", "parameter", "value",
                "algorithm", "time_seconds", "memory_mb", "objective",
                "clients",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.experiment, row.venue, row.setting, row.parameter,
                    row.value, row.algorithm,
                    f"{row.time_seconds:.6f}", f"{row.memory_mb:.4f}",
                    "" if row.objective is None else f"{row.objective:.6f}",
                    row.clients,
                ]
            )
