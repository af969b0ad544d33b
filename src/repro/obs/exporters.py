"""Exporters: JSON-lines traces, human-readable trees, metrics CSV.

Three output shapes, all documented in ``docs/OBSERVABILITY.md``:

* **JSON-lines trace** — one span object per line in start order
  (:func:`write_trace_jsonl`), round-tripped by
  :func:`read_trace_jsonl`.  The schema is
  :meth:`repro.obs.trace.SpanRecord.to_dict`.
* **tree dump** — :func:`format_trace_tree` renders the span forest
  with durations and the biggest counter deltas, for eyeballing where
  a query spent its time.
* **metrics CSV** — :func:`write_metrics_csv` flattens a
  :meth:`repro.obs.metrics.MetricsRegistry.snapshot` into one row per
  instrument (the same CSV conventions as the bench harness),
  round-tripped by :func:`read_metrics_csv`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from .metrics import Histogram, MetricsRegistry
from .trace import SpanRecord, Tracer

__all__ = [
    "write_trace_jsonl",
    "read_trace_jsonl",
    "format_trace_tree",
    "METRICS_CSV_COLUMNS",
    "write_metrics_csv",
    "read_metrics_csv",
]


def _records(
    source: Union[Tracer, Iterable[SpanRecord]],
) -> List[SpanRecord]:
    if isinstance(source, Tracer):
        return source.sorted_records()
    return sorted(source, key=lambda record: record.index)


# ---------------------------------------------------------------------------
# JSON-lines traces
# ---------------------------------------------------------------------------
def write_trace_jsonl(
    source: Union[Tracer, Iterable[SpanRecord]], path: Path
) -> int:
    """Write spans as JSON lines (start order); returns the span count.

    Accepts a :class:`Tracer` or an iterable of records, so merged
    multi-process traces export the same way as single-process ones.
    """
    records = _records(source)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for record in records:
            json.dump(record.to_dict(), handle, sort_keys=True)
            handle.write("\n")
    return len(records)


def read_trace_jsonl(path: Path) -> List[SpanRecord]:
    """Inverse of :func:`write_trace_jsonl` (blank lines tolerated)."""
    records: List[SpanRecord] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_dict(json.loads(line)))
    return records


# ---------------------------------------------------------------------------
# Human-readable tree
# ---------------------------------------------------------------------------
def _escape_cell(text: str) -> str:
    """Make a name or attribute value safe for one-line formats.

    Control characters that would break the tree's one-line-per-span
    invariant are escaped (``\\n``, ``\\r``, ``\\t``, and the escape
    character itself).
    """
    return (
        text.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def format_trace_tree(
    source: Union[Tracer, Iterable[SpanRecord]],
    counters: int = 3,
) -> str:
    """Render the span forest, one line per span.

    Indentation follows span depth; each line shows the duration in
    milliseconds, span attributes, and the ``counters`` largest
    counter deltas.  Multi-process traces interleave by merge order
    and tag spans from foreign pids.
    """
    records = _records(source)
    if not records:
        return "(empty trace)"
    own_pid = records[0].pid
    lines: List[str] = []
    for record in records:
        parts = [
            f"{'  ' * record.depth}{_escape_cell(record.name)}",
            f"{record.duration * 1000:.2f}ms",
        ]
        if record.pid != own_pid:
            parts.append(f"pid={record.pid}")
        for key, value in sorted(record.attrs.items()):
            parts.append(
                f"{_escape_cell(str(key))}={_escape_cell(str(value))}"
            )
        top = sorted(
            record.counters.items(),
            key=lambda item: (-abs(item[1]), item[0]),
        )[:counters]
        for key, value in top:
            parts.append(f"{key}={value:+g}")
        lines.append("  ".join(parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------
METRICS_CSV_COLUMNS = (
    "metric", "type", "value", "count", "sum", "min", "max",
    "p50", "p95",
)


def _fmt_stat(value: float) -> str:
    """Render one histogram statistic cell deterministically.

    Non-finite bounds get fixed spellings (``NaN`` / ``Inf`` /
    ``-Inf``) rather than platform/format-dependent ones; Python's
    ``float()`` parses all three back, so round-trips are exact.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Inf" if value > 0 else "-Inf"
    return f"{value:.9g}"


def write_metrics_csv(
    source: Union[MetricsRegistry, Dict], path: Path
) -> int:
    """Write a metrics snapshot as CSV; returns the row count.

    One row per instrument, columns :data:`METRICS_CSV_COLUMNS`:
    counters and gauges fill ``value``; histograms fill ``count`` /
    ``sum`` / ``min`` / ``max`` and the reservoir-estimated ``p50`` /
    ``p95``.  Rows are sorted by (type, metric) so diffs are stable.
    """
    snapshot = (
        source.snapshot()
        if isinstance(source, MetricsRegistry)
        else source
    )
    rows: List[Sequence[object]] = []
    for name, payload in sorted(snapshot.get("counters", {}).items()):
        rows.append(
            (name, "counter", payload["value"], "", "", "", "", "", "")
        )
    for name, payload in sorted(snapshot.get("gauges", {}).items()):
        rows.append(
            (name, "gauge", payload["value"], "", "", "", "", "", "")
        )
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        reservoir = Histogram()
        for sample in payload["reservoir"]:
            reservoir.record(sample)
        empty = not payload["count"]
        rows.append(
            (
                name, "histogram", "",
                payload["count"],
                _fmt_stat(payload["sum"]),
                "" if empty else _fmt_stat(payload["min"]),
                "" if empty else _fmt_stat(payload["max"]),
                "" if empty else _fmt_stat(reservoir.percentile(0.5)),
                "" if empty else _fmt_stat(reservoir.percentile(0.95)),
            )
        )
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_CSV_COLUMNS)
        writer.writerows(rows)
    return len(rows)


def read_metrics_csv(path: Path) -> Dict[str, Dict[str, object]]:
    """Load a :func:`write_metrics_csv` file as ``{metric: row}``.

    Numeric fields come back as floats (counters/gauges under
    ``"value"``, histograms under ``"count"``/``"sum"``/``"min"``/
    ``"max"``/``"p50"``/``"p95"``); absent fields are omitted.
    """
    out: Dict[str, Dict[str, object]] = {}
    # newline="" hands line splitting to the csv module, so quoted
    # fields containing \r or \n survive the round trip untranslated.
    with open(path, newline="") as handle:
        for record in csv.DictReader(handle):
            row: Dict[str, object] = {"type": record["type"]}
            for column in (
                "value", "count", "sum", "min", "max", "p50", "p95"
            ):
                text = record.get(column, "")
                if text != "" and text is not None:
                    row[column] = float(text)
            out[record["metric"]] = row
    return out
