"""EXPLAIN reports: a structured account of one IFLS query.

An :class:`ExplainReport` bundles everything the observability layer
knows about a single query into one queryable object:

* **phases** — the query's span tree (:mod:`repro.obs.trace`) with
  per-phase wall time and the :class:`DistanceStats` counter deltas
  each phase paid, plus the *own* share of every delta (the phase's
  counters minus its counter-bearing descendants), so the per-phase
  attribution sums **exactly** to the query's top-level distance
  ledger (``tools/check_counters.py`` enforces this);
* **bound evolution** — the Lemma 5.1 global bound after each solver
  round with the retained/pruned client split
  (:class:`~repro.obs.profile.ProfileCollector`);
* **index visits** — VIP-tree node expansions and access-door widths
  per tree level;
* **cache breakdown** — memo hits versus paid computations, per cache,
  from the same ledger the session layer reports.

Three renderings, following the exporter conventions of
:mod:`repro.obs.exporters`: an aligned text tree
(:func:`format_explain` / :meth:`ExplainReport.describe`), JSON
(:func:`write_explain_json` / :func:`read_explain_json`, schema
version :data:`EXPLAIN_SCHEMA`), and CSV (one row per phase with the
full distance-counter attribution,
:func:`write_explain_csv` / :func:`read_explain_csv`).

Reports are produced by :func:`explain_query`, which
:meth:`repro.core.queries.IFLSEngine.explain` (and the ``ifls
explain`` CLI) and a session answering a ``QueryRequest`` with
``explain=True`` (serial and sharded-parallel batches, the query
service) all run through; each assembly increments the
``explain.reports`` contract metric.  A report's time and distance
ledger are the ones the solver measured into ``result.stats``; a
session returns the report as ``result.explain``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import metrics as _metrics
from . import profile as _profile
from . import trace as _trace
from .profile import BoundStep, ProfileCollector
from .trace import SpanRecord, Tracer

__all__ = [
    "EXPLAIN_SCHEMA",
    "EXPLAIN_CSV_COLUMNS",
    "DISTANCE_COUNTER_KEYS",
    "ExplainPhase",
    "ExplainReport",
    "build_report",
    "explain_query",
    "format_explain",
    "write_explain_json",
    "read_explain_json",
    "write_explain_csv",
    "read_explain_csv",
]

EXPLAIN_SCHEMA = 1

#: The full :class:`repro.index.distance.DistanceStats` ledger, in
#: declaration order — the fixed counter columns of the CSV rendering.
DISTANCE_COUNTER_KEYS = (
    "distance_computations",
    "d2d_lookups",
    "d2d_cache_hits",
    "imind_calls",
    "imind_cache_hits",
    "imind_node_calls",
    "imind_node_cache_hits",
    "idist_calls",
    "single_door_shortcuts",
    "cache_evictions",
    "kernel_batches",
)

EXPLAIN_CSV_COLUMNS = (
    "phase", "depth", "duration_seconds"
) + DISTANCE_COUNTER_KEYS


@dataclass
class ExplainPhase:
    """One span of the explained query, with counter attribution.

    ``counters`` is the span's *inclusive* delta (everything that
    happened while it was open); ``own_counters`` subtracts the
    nearest counter-bearing descendants, so summing ``own_counters``
    over all phases reproduces the root delta exactly.  Spans opened
    without a counter source (e.g. ``session.query``) carry empty
    dicts and attribute nothing.
    """

    index: int
    name: str
    parent: Optional[int]
    depth: int
    duration_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    own_counters: Dict[str, int] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "index": self.index,
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "duration_seconds": self.duration_seconds,
            "counters": self.counters,
            "own_counters": self.own_counters,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplainPhase":
        """Inverse of :meth:`to_dict`."""
        parent = payload.get("parent")
        return cls(
            index=int(payload["index"]),
            name=str(payload["name"]),
            parent=None if parent is None else int(parent),
            depth=int(payload["depth"]),
            duration_seconds=float(payload["duration_seconds"]),
            counters={
                str(k): int(v)
                for k, v in payload.get("counters", {}).items()
            },
            own_counters={
                str(k): int(v)
                for k, v in payload.get("own_counters", {}).items()
            },
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass
class ExplainReport:
    """Everything the profiler learned about one query.

    ``cache_entries`` is the answering session's memo size after the
    query (``None`` for :meth:`IFLSEngine.explain`).
    """

    label: str
    objective: str
    algorithm: str
    answer: Optional[int]
    objective_value: float
    status: str
    clients_total: int
    clients_pruned: int
    elapsed_seconds: float
    phases: List[ExplainPhase]
    distance_totals: Dict[str, int]
    bound_steps: List[BoundStep]
    bound_rounds: int
    bound_steps_dropped: int
    node_visits: Dict[int, Dict[str, int]]
    cache_entries: Optional[int] = None

    # -- derived views -------------------------------------------------
    def attributed_counters(self) -> Dict[str, int]:
        """Sum of per-phase *own* deltas (non-zero entries only).

        Equals the non-zero entries of :attr:`distance_totals` — the
        attribution invariant checked by ``tools/check_counters.py``.
        """
        summed: Dict[str, int] = {}
        for phase in self.phases:
            for key, value in phase.own_counters.items():
                summed[key] = summed.get(key, 0) + value
        return {key: value for key, value in summed.items() if value}

    @property
    def cache_hits(self) -> int:
        """Memo hits across all three caches."""
        totals = self.distance_totals
        return (
            totals.get("d2d_cache_hits", 0)
            + totals.get("imind_cache_hits", 0)
            + totals.get("imind_node_cache_hits", 0)
        )

    @property
    def cache_hit_rate(self) -> float:
        """Hits per distance request inside this query."""
        requests = (
            self.distance_totals.get("distance_computations", 0)
            + self.cache_hits
        )
        return self.cache_hits / requests if requests else 0.0

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (schema :data:`EXPLAIN_SCHEMA`)."""
        return {
            "schema": EXPLAIN_SCHEMA,
            "label": self.label,
            "objective": self.objective,
            "algorithm": self.algorithm,
            "answer": self.answer,
            "objective_value": self.objective_value,
            "status": self.status,
            "clients_total": self.clients_total,
            "clients_pruned": self.clients_pruned,
            "elapsed_seconds": self.elapsed_seconds,
            "phases": [phase.to_dict() for phase in self.phases],
            "distance_totals": self.distance_totals,
            "bound_steps": [
                step.to_dict() for step in self.bound_steps
            ],
            "bound_rounds": self.bound_rounds,
            "bound_steps_dropped": self.bound_steps_dropped,
            "node_visits": {
                str(depth): dict(visit)
                for depth, visit in self.node_visits.items()
            },
            "cache_entries": self.cache_entries,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplainReport":
        """Inverse of :meth:`to_dict`."""
        schema = payload.get("schema")
        if schema != EXPLAIN_SCHEMA:
            raise ValueError(
                f"unsupported explain schema {schema!r} "
                f"(expected {EXPLAIN_SCHEMA})"
            )
        answer = payload.get("answer")
        cache_entries = payload.get("cache_entries")
        return cls(
            label=str(payload["label"]),
            objective=str(payload["objective"]),
            algorithm=str(payload["algorithm"]),
            answer=None if answer is None else int(answer),
            objective_value=float(payload["objective_value"]),
            status=str(payload["status"]),
            clients_total=int(payload["clients_total"]),
            clients_pruned=int(payload["clients_pruned"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            phases=[
                ExplainPhase.from_dict(item)
                for item in payload["phases"]
            ],
            distance_totals={
                str(k): int(v)
                for k, v in payload["distance_totals"].items()
            },
            bound_steps=[
                BoundStep.from_dict(item)
                for item in payload.get("bound_steps", [])
            ],
            bound_rounds=int(payload.get("bound_rounds", 0)),
            bound_steps_dropped=int(
                payload.get("bound_steps_dropped", 0)
            ),
            node_visits={
                int(depth): {
                    "nodes": int(visit["nodes"]),
                    "access_doors": int(visit["access_doors"]),
                }
                for depth, visit in payload.get(
                    "node_visits", {}
                ).items()
            },
            cache_entries=(
                None if cache_entries is None else int(cache_entries)
            ),
        )

    def describe(self, timings: bool = True, counters: int = 3) -> str:
        """Aligned text rendering (see :func:`format_explain`)."""
        return format_explain(self, timings=timings, counters=counters)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------
def _own_counters(
    phases: Sequence[ExplainPhase],
) -> None:
    """Fill ``own_counters``: inclusive deltas minus the nearest
    counter-bearing descendants (stats-less spans are transparent)."""
    by_index = {phase.index: phase for phase in phases}
    for phase in phases:
        phase.own_counters = dict(phase.counters)
    for phase in phases:
        if not phase.counters:
            continue
        ancestor = (
            by_index.get(phase.parent)
            if phase.parent is not None
            else None
        )
        while ancestor is not None and not ancestor.counters:
            ancestor = (
                by_index.get(ancestor.parent)
                if ancestor.parent is not None
                else None
            )
        if ancestor is None:
            continue
        own = ancestor.own_counters
        for key, value in phase.counters.items():
            own[key] = own.get(key, 0) - value


def build_report(
    records: Sequence[SpanRecord],
    collector: ProfileCollector,
    result: Any,
    label: str = "",
    objective: str = "",
    algorithm: str = "",
) -> ExplainReport:
    """Assemble an :class:`ExplainReport` for one finished query.

    ``records`` are the spans collected while the query ran (the
    outermost one is expected to be the ``explain.query`` root).
    ``result`` is the query's :class:`~repro.core.result.IFLSResult`;
    its ``stats`` give the report's time and ``distance_totals``, the
    solver's :class:`DistanceStats` delta — the ledger every per-phase
    attribution must sum back to.
    """
    phases = [
        ExplainPhase(
            index=record.index,
            name=record.name,
            parent=record.parent,
            depth=record.depth,
            duration_seconds=record.duration,
            counters={
                key: int(value)
                for key, value in record.counters.items()
            },
            attrs=dict(record.attrs),
        )
        for record in sorted(records, key=lambda item: item.index)
    ]
    _own_counters(phases)
    stats = result.stats
    report = ExplainReport(
        label=label,
        objective=objective or getattr(stats, "algorithm", ""),
        algorithm=algorithm,
        answer=result.answer,
        objective_value=result.objective,
        status=str(result.status),
        clients_total=stats.clients_total,
        clients_pruned=stats.clients_pruned,
        elapsed_seconds=stats.elapsed_seconds,
        phases=phases,
        distance_totals=stats.distance.snapshot(),
        bound_steps=list(collector.bound_steps),
        bound_rounds=collector.bound_rounds,
        bound_steps_dropped=collector.bound_steps_dropped,
        node_visits=collector.visits_by_depth(),
    )
    _metrics.add("explain.reports")
    return report


def explain_query(
    solve: Callable[[], Any],
    ledger: Any,
    label: str = "",
    objective: str = "",
    algorithm: str = "",
    bound_limit: int = 512,
) -> Tuple[Any, ExplainReport]:
    """Run ``solve`` under the EXPLAIN profiler; return its result and
    the :class:`ExplainReport` describing it.

    A private tracer and :class:`ProfileCollector` observe the solve
    inside an ``explain.query`` span over ``ledger`` (the distance
    engine's :class:`DistanceStats`), the root every per-phase counter
    attribution sums back to.  The profiled spans are then absorbed
    into whatever tracer is active, so EXPLAIN composes with ambient
    tracing.  The report's time and ``distance_totals`` are the ones
    the solver measured into ``result.stats``.
    """
    collector = ProfileCollector(bound_limit=bound_limit)
    tracer = Tracer()
    with _trace.use(tracer), _profile.use(collector):
        with _trace.span(
            "explain.query",
            stats=ledger,
            objective=objective,
            algorithm=algorithm,
            label=label,
        ):
            result = solve()
    records = tracer.sorted_records()
    ambient = _trace.active()
    if ambient is not None:
        ambient.absorb(records)
    report = build_report(
        records,
        collector,
        result,
        label=label,
        objective=objective,
        algorithm=algorithm,
    )
    return result, report


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------
def _fmt_bound(value: float) -> str:
    return "inf" if not math.isfinite(value) else f"{value:.3f}"


def format_explain(
    report: ExplainReport, timings: bool = True, counters: int = 3
) -> str:
    """Render a report as an aligned text tree.

    ``timings=False`` replaces every wall-time figure with ``-`` so
    the output is byte-stable across runs (used by the golden test);
    ``counters`` bounds how many counter deltas each phase line shows.
    """
    lines: List[str] = []
    head = f"EXPLAIN  {report.algorithm}/{report.objective}"
    if report.label:
        head += f"  label={report.label}"
    lines.append(head)
    answer = (
        f"partition {report.answer}"
        if report.answer is not None
        else "none"
    )
    lines.append(
        f"answer: {answer}  objective={report.objective_value:.4f}  "
        f"({report.status})"
    )
    lines.append(
        f"clients: {report.clients_total} total, "
        f"{report.clients_pruned} pruned (Lemma 5.1)"
    )
    if timings:
        lines.append(f"time: {report.elapsed_seconds * 1000:.2f}ms")

    lines.append("")
    lines.append("phases")
    width = max(
        (len("  " * p.depth + p.name) for p in report.phases),
        default=0,
    )
    for phase in report.phases:
        name = "  " * phase.depth + phase.name
        duration = (
            f"{phase.duration_seconds * 1000:9.2f}ms"
            if timings
            else f"{'-':>11}"
        )
        parts = [f"  {name:<{width}}  {duration}"]
        top = sorted(
            phase.own_counters.items(),
            key=lambda item: (-abs(item[1]), item[0]),
        )
        shown = [
            f"{key}={value:+d}"
            for key, value in top[:counters]
            if value
        ]
        if shown:
            parts.append("  ".join(shown))
        lines.append("  ".join(parts))

    lines.append("")
    lines.append(
        f"Lemma 5.1 bound evolution "
        f"({report.bound_rounds} rounds, "
        f"{len(report.bound_steps)} samples"
        + (
            f", {report.bound_steps_dropped} thinned"
            if report.bound_steps_dropped
            else ""
        )
        + ")"
    )
    if report.bound_steps:
        lines.append(
            f"  {'round':>7}  {'bound':>10}  {'retained':>8}  "
            f"{'pruned':>6}"
        )
        for step in report.bound_steps:
            lines.append(
                f"  {step.round_index:>7}  "
                f"{_fmt_bound(step.bound):>10}  "
                f"{step.retained:>8}  {step.pruned:>6}"
            )
    else:
        lines.append("  (no solver rounds recorded)")

    lines.append("")
    lines.append("VIP-tree visits by level")
    if report.node_visits:
        lines.append(
            f"  {'depth':>5}  {'nodes':>6}  {'access_doors':>12}"
        )
        for depth in sorted(report.node_visits):
            visit = report.node_visits[depth]
            lines.append(
                f"  {depth:>5}  {visit['nodes']:>6}  "
                f"{visit['access_doors']:>12}"
            )
    else:
        lines.append("  (no node expansions recorded)")

    lines.append("")
    lines.append("distance ledger (phase-attributed)")
    attributed = report.attributed_counters()
    shown_keys = [
        key
        for key in DISTANCE_COUNTER_KEYS
        if report.distance_totals.get(key) or attributed.get(key)
    ]
    lines.append(f"  {'counter':<24}  {'total':>8}  {'attributed':>10}")
    for key in shown_keys:
        lines.append(
            f"  {key:<24}  {report.distance_totals.get(key, 0):>8}  "
            f"{attributed.get(key, 0):>10}"
        )

    requests = (
        report.distance_totals.get("distance_computations", 0)
        + report.cache_hits
    )
    lines.append("")
    cache_line = (
        f"cache: {report.cache_hits} hits / {requests} requests "
        f"({report.cache_hit_rate:.0%})"
    )
    if report.cache_entries is not None:
        cache_line += f", {report.cache_entries} entries held"
    lines.append(cache_line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON / CSV exporters
# ---------------------------------------------------------------------------
def _prepare(path: Path) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_explain_json(report: ExplainReport, path: Path) -> None:
    """Write one report as an indented JSON document."""
    path = _prepare(path)
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_explain_json(path: Path) -> ExplainReport:
    """Inverse of :func:`write_explain_json`."""
    with open(path) as handle:
        return ExplainReport.from_dict(json.load(handle))


def write_explain_csv(report: ExplainReport, path: Path) -> int:
    """Write the per-phase attribution as CSV; returns the row count.

    One row per phase, columns :data:`EXPLAIN_CSV_COLUMNS`; counter
    columns hold the phase's *own* (attributed) deltas, so summing a
    column over all rows reproduces the query's ledger total.
    """
    path = _prepare(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EXPLAIN_CSV_COLUMNS)
        for phase in report.phases:
            writer.writerow(
                (
                    phase.name,
                    phase.depth,
                    f"{phase.duration_seconds:.9g}",
                )
                + tuple(
                    phase.own_counters.get(key, 0)
                    for key in DISTANCE_COUNTER_KEYS
                )
            )
    return len(report.phases)


def read_explain_csv(path: Path) -> List[Dict[str, object]]:
    """Load a :func:`write_explain_csv` file as a list of row dicts."""
    rows: List[Dict[str, object]] = []
    with open(path) as handle:
        for record in csv.DictReader(handle):
            row: Dict[str, object] = {
                "phase": record["phase"],
                "depth": int(record["depth"]),
                "duration_seconds": float(record["duration_seconds"]),
            }
            for key in DISTANCE_COUNTER_KEYS:
                row[key] = int(record[key])
            rows.append(row)
    return rows
