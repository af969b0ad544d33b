"""Perf-regression sentinel: versioned bench baselines, tolerance gates.

The benchmark harness answers "how fast is it today"; this module
answers "did it get worse".  A *baseline* is a committed JSON file
(``BENCH_<suite>.json``) holding the median-of-N values of a metric
suite, stamped with the recording machine's fingerprint and git
revision.  A *gate* re-runs the suite and compares metric by metric:

* **exact** metrics (distance computations, queue pops, pruning
  counts, answer checksums) get **zero** tolerance — the algorithms
  are deterministic, so any change is a behavioural regression (or an
  intentional change that must re-record the baseline);
* **wall** metrics (elapsed seconds) get a configurable relative band,
  and are only *enforced* when the current machine fingerprint matches
  the baseline's — wall time measured on different hardware is noise,
  so a mismatch downgrades wall comparisons to ``skipped`` unless
  ``strict_wall`` forces them.

The gate report names every drifted metric with its baseline/current
values, so a CI failure is actionable without re-running anything.

This is also the one way an experiment is measured and stored: each
sweep of :mod:`repro.bench.experiments` is a suite here (``fig5``,
``fig6``, ``fig78``, ``ablation``, ``extensions``, ``parallel``,
``replay``) whose rows become metrics (:func:`row_metrics`): per row
the objective and the client count that ran are exact, seconds and
peak MB are wall.  Their baselines live under
``benchmarks/recorded/``, in the same schema, and are what
``ifls report`` renders.  Recording refuses a suite whose exact
metrics differ between runs.

Entry points: :func:`record_baseline`, :func:`gate` and the ``ifls
perfgate`` CLI.  Suite executions run under the ``perfgate.suite``
span; every comparison increments the ``perfgate.comparisons`` /
``perfgate.drifted_metrics`` contract metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .experiments import (
    EXPERIMENTS,
    STREAM_FE,
    STREAM_FN,
    STREAM_INITIAL,
    STREAM_VENUE,
    Row,
    zlib_seed,
)

__all__ = [
    "BASELINE_SCHEMA",
    "EXACT",
    "WALL",
    "DEFAULT_WALL_TOLERANCE",
    "MATRIX_ALGORITHMS",
    "MATRIX_BACKENDS",
    "MATRIX_VENUES",
    "SUITES",
    "Baseline",
    "GateEntry",
    "GateReport",
    "machine_fingerprint",
    "git_sha",
    "row_metrics",
    "metric_rows",
    "run_suite",
    "record_baseline",
    "load_baseline",
    "compare_to_baseline",
    "gate",
    "default_baseline_path",
]

BASELINE_SCHEMA = 1

EXACT = "exact"
WALL = "wall"

#: Relative band for wall-clock metrics: current may move +/- 50%.
DEFAULT_WALL_TOLERANCE = 0.5

#: One measured metric: ``(value, kind)`` with kind exact|wall.
MetricSample = Tuple[float, str]


def machine_fingerprint() -> Dict[str, object]:
    """Identify the measuring machine (decides wall enforcement).

    Includes the numpy version (or ``None`` when absent) and whether
    the array kernels resolve enabled, because the kernel fast path
    makes wall times — and the exact memo-traffic ledger — depend on
    whether and how queries were vectorised.
    """
    from ..index import kernels as _kernels

    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy present in dev env
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "numpy": numpy_version,
        "kernels": _kernels.default_enabled(),
    }


def git_sha() -> Optional[str]:
    """The recorded tree's revision, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------
def _answer_checksum(results) -> int:
    """Order-sensitive integer digest of a batch's answers."""
    digest = 0
    for position, result in enumerate(results, start=1):
        answer = -1 if result.answer is None else int(result.answer)
        digest += position * (answer + 7)
    return digest


def _suite_small() -> Dict[str, MetricSample]:
    """The committed ``small`` suite: session + parallel + fig5-small.

    Everything is seeded, so the exact counters are reproducible on
    any machine; the wall metrics describe this host only.
    """
    import random

    from ..core.parallel import run_batch_parallel
    from ..core.queries import IFLSEngine
    from ..core.request import QueryRequest
    from ..core.stats import merge_query_stats
    from ..datasets import (
        random_facility_sets,
        small_office,
        uniform_clients,
        venue_by_name,
    )

    metrics: Dict[str, MetricSample] = {}

    # -- session: warm mixed-objective batch on the toy office venue.
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rng = random.Random(0xC0FFEE)
    objectives = ("minmax", "mindist", "maxsum")
    batch = []
    for number in range(6):
        facilities = random_facility_sets(venue, 4, 8, rng)
        clients = uniform_clients(venue, 40, rng)
        batch.append(
            QueryRequest(
                tuple(clients),
                facilities,
                objective=objectives[number % len(objectives)],
                label=f"q{number + 1}",
            )
        )
    session = engine.session()
    started = time.perf_counter()
    results = session.run(batch)
    session_seconds = time.perf_counter() - started
    report = session.report()
    merged = merge_query_stats(result.stats for result in results)
    metrics["session.distance_computations"] = (
        float(report.totals["distance_computations"]), EXACT,
    )
    metrics["session.d2d_lookups"] = (
        float(report.totals["d2d_lookups"]), EXACT,
    )
    metrics["session.cache_hits"] = (float(report.cache_hits), EXACT)
    metrics["session.queue_pops"] = (float(merged.queue_pops), EXACT)
    metrics["session.clients_pruned"] = (
        float(merged.clients_pruned), EXACT,
    )
    metrics["session.answer_checksum"] = (
        float(_answer_checksum(results)), EXACT,
    )
    metrics["session.seconds"] = (session_seconds, WALL)

    # -- parallel: same batch on a 2-worker pool.  Only QueryStats
    # counters are gated: they are cache-warmth independent, whereas
    # the distance-cache split varies with shard scheduling.
    outcome = run_batch_parallel(engine, batch, workers=2)
    stats = outcome.query_stats
    metrics["parallel.queue_pops"] = (float(stats.queue_pops), EXACT)
    metrics["parallel.facilities_retrieved"] = (
        float(stats.facilities_retrieved), EXACT,
    )
    metrics["parallel.clients_pruned"] = (
        float(stats.clients_pruned), EXACT,
    )
    metrics["parallel.answer_checksum"] = (
        float(_answer_checksum(outcome.results)), EXACT,
    )
    metrics["parallel.seconds"] = (outcome.elapsed_seconds, WALL)

    # -- fig5-small: efficient vs baseline, cold, on the CPH venue.
    venue = venue_by_name("CPH")
    engine = IFLSEngine(venue)
    rng = random.Random(0x5EED)
    facilities = random_facility_sets(venue, 10, 20, rng)
    clients = uniform_clients(venue, 200, rng)
    for algorithm in ("efficient", "baseline"):
        result = engine.query(
            clients, facilities, algorithm=algorithm, cold=True
        )
        distance = result.stats.distance
        metrics[f"fig5.{algorithm}.distance_computations"] = (
            float(distance.distance_computations), EXACT,
        )
        metrics[f"fig5.{algorithm}.answer"] = (
            float(-1 if result.answer is None else result.answer),
            EXACT,
        )
        metrics[f"fig5.{algorithm}.seconds"] = (
            result.stats.elapsed_seconds, WALL,
        )
        if algorithm == "efficient":
            metrics["fig5.efficient.clients_pruned"] = (
                float(result.stats.clients_pruned), EXACT,
            )
    return metrics


#: Venue axis of the ``matrix`` suite: the smallest real venue plus
#: the mid-sized default one, so the cross-index grid stays cheap
#: enough to gate on every CI run.
MATRIX_VENUES = ("CPH", "MC")

#: Algorithm axis: the paper's two MinMax solvers plus the Section-7
#: objective extensions (answered by the efficient approach).
MATRIX_ALGORITHMS = ("efficient", "baseline", "mindist", "maxsum")

#: Backend axis for door-to-door resolution (viptree is the only one
#: answering full IFLS queries; the others are d2d-only).
MATRIX_BACKENDS = ("viptree", "iptree", "doortable")

#: Fixed matrix workload: |C| / |Fe| / |Fn| / random door pairs.
MATRIX_CLIENTS = 120
MATRIX_FE = 10
MATRIX_FN = 15
MATRIX_D2D_PAIRS = 200


def _suite_matrix() -> Dict[str, MetricSample]:
    """The cross-index ``matrix`` suite: backend x algorithm x venue.

    Three grids, all through the :func:`repro.api.open_venue` facade so
    the suite measures exactly what library users get:

    * **IFLS grid** (``matrix.<venue>.viptree.<algorithm>.*``) — every
      algorithm/objective of :data:`MATRIX_ALGORITHMS` answered cold on
      each venue; exact distance-computation counts and answers, wall
      seconds per cell;
    * **door-to-door grid** (``matrix.<venue>.<backend>.d2d.*``) — the
      same seeded door pairs resolved through each backend; the
      distance checksum is exact (all backends index one graph, so any
      divergence is a correctness bug), seconds describe this host;
    * **kernel ablation** (``kernels.<venue>.*``) — the efficient
      MinMax query on the array-kernel path vs the scalar oracle over
      one shared tree; ``distance_computations`` is recorded from the
      scalar run and asserted identical on the kernel run (the ledger
      is path-independent), so the report's kernel-vs-scalar table can
      show a speedup over provably identical work.

    Everything is seeded; exact metrics reproduce on any machine.  The
    kernel-path entries are only measured where numpy is importable —
    matching the committed baseline, which is recorded with kernels on.
    """
    import random

    from ..api import open_venue
    from ..core.queries import IFLSEngine
    from ..datasets import random_facility_sets, uniform_clients
    from ..datasets.venues import venue_by_name
    from ..index import kernels as _kernels

    metrics: Dict[str, MetricSample] = {}
    for venue_name in MATRIX_VENUES:
        engine = open_venue(venue_name)
        rng = random.Random(zlib_seed("matrix", venue_name))
        facilities = random_facility_sets(
            engine.venue, MATRIX_FE, MATRIX_FN, rng
        )
        clients = uniform_clients(engine.venue, MATRIX_CLIENTS, rng)

        # -- IFLS grid: every algorithm/objective on the viptree backend.
        for algorithm in MATRIX_ALGORITHMS:
            solver = "baseline" if algorithm == "baseline" else "efficient"
            objective = (
                algorithm
                if algorithm in ("mindist", "maxsum")
                else "minmax"
            )
            result = engine.core.query(
                clients,
                facilities,
                algorithm=solver,
                objective=objective,
                cold=True,
            )
            prefix = f"matrix.{venue_name}.viptree.{algorithm}"
            metrics[f"{prefix}.distance_computations"] = (
                float(result.stats.distance.distance_computations),
                EXACT,
            )
            metrics[f"{prefix}.answer"] = (
                float(-1 if result.answer is None else result.answer),
                EXACT,
            )
            metrics[f"{prefix}.seconds"] = (
                result.stats.elapsed_seconds, WALL,
            )

        # -- d2d grid: the same seeded pairs through every backend.
        doors = sorted(engine.venue.door_ids())
        pair_rng = random.Random(zlib_seed("matrix-d2d", venue_name))
        pairs = [
            tuple(pair_rng.sample(doors, 2))
            for _ in range(MATRIX_D2D_PAIRS)
        ]
        for backend in MATRIX_BACKENDS:
            started = time.perf_counter()
            total = sum(
                engine.door_to_door(a, b, backend=backend)
                for a, b in pairs
            )
            seconds = time.perf_counter() - started
            prefix = f"matrix.{venue_name}.{backend}.d2d"
            metrics[f"{prefix}.checksum"] = (round(total, 6), EXACT)
            metrics[f"{prefix}.seconds"] = (seconds, WALL)

        # -- kernel ablation: array path vs scalar oracle, shared tree.
        scalar = IFLSEngine(
            engine.venue, tree=engine.tree, use_kernels=False
        )
        scalar_result = scalar.query(clients, facilities, cold=True)
        metrics[f"kernels.{venue_name}.distance_computations"] = (
            float(scalar_result.stats.distance.distance_computations),
            EXACT,
        )
        metrics[f"kernels.{venue_name}.off.seconds"] = (
            scalar_result.stats.elapsed_seconds, WALL,
        )
        if _kernels.available():
            fast = IFLSEngine(
                engine.venue, tree=engine.tree, use_kernels=True
            )
            fast_result = fast.query(clients, facilities, cold=True)
            if (
                fast_result.stats.distance.distance_computations
                != scalar_result.stats.distance.distance_computations
            ):
                raise RuntimeError(
                    f"matrix suite: kernel-path distance ledger "
                    f"diverged from the scalar oracle on {venue_name}"
                )
            metrics[f"kernels.{venue_name}.on.seconds"] = (
                fast_result.stats.elapsed_seconds, WALL,
            )
    return metrics


#: The ``stream`` suite's mixed arrive/depart/move tail, replayed on
#: the stream workload of :mod:`repro.bench.experiments`.
STREAM_EVENTS = 600


def _suite_stream() -> Dict[str, MetricSample]:
    """The continuous-query ``stream`` suite: one incremental replay.

    A seeded synthetic event stream (arrivals, departures, moves) is
    replayed through :class:`~repro.core.stream.ContinuousQuery` in
    incremental mode.  Every tier of the maintenance algorithm is
    pinned exactly — skip counts, partial solves, full recomputes, the
    per-group reevaluation ledger, and an order-sensitive checksum of
    the per-event answers — so any behavioural change to the skip
    rules or the Lemma 5.1 settled-group reduction trips the gate.
    The suite also enforces the headline property the docs promise:
    fewer groups reevaluated than events applied (ratio < 1), i.e. the
    incremental path does strictly less work than one group per event.
    """
    import random

    from ..core.queries import IFLSEngine
    from ..core.stream import ContinuousQuery, synthetic_events
    from ..datasets import random_facility_sets, venue_by_name

    venue = venue_by_name(STREAM_VENUE)
    engine = IFLSEngine(venue)
    rng = random.Random(zlib_seed("stream", STREAM_VENUE))
    facilities = random_facility_sets(
        venue, STREAM_FE, STREAM_FN, rng
    )
    events = synthetic_events(
        venue,
        initial=STREAM_INITIAL,
        events=STREAM_EVENTS,
        seed=zlib_seed("stream-events", STREAM_VENUE),
    )
    stream = ContinuousQuery(engine, facilities, incremental=True)
    started = time.perf_counter()
    answers = stream.apply_batch(events)
    seconds = time.perf_counter() - started
    stats = stream.stats
    if stats.reevaluation_ratio >= 1.0:
        raise RuntimeError(
            f"stream suite: reevaluation ratio "
            f"{stats.reevaluation_ratio:.3f} >= 1 — the incremental "
            "path no longer beats one group per event"
        )
    metrics: Dict[str, MetricSample] = {}
    metrics["stream.events"] = (float(stats.events), EXACT)
    metrics["stream.skips"] = (float(stats.skips), EXACT)
    metrics["stream.partial_solves"] = (
        float(stats.partial_solves), EXACT,
    )
    metrics["stream.full_recomputes"] = (
        float(stats.full_recomputes), EXACT,
    )
    metrics["stream.groups_reevaluated"] = (
        float(stats.groups_reevaluated), EXACT,
    )
    metrics["stream.groups_skipped"] = (
        float(stats.groups_skipped), EXACT,
    )
    metrics["stream.reevaluation_ratio"] = (
        round(stats.reevaluation_ratio, 6), EXACT,
    )
    metrics["stream.answer_checksum"] = (
        float(_answer_checksum(answers)), EXACT,
    )
    metrics["stream.seconds"] = (seconds, WALL)
    return metrics


def row_metrics(rows: Iterable[Row]) -> Dict[str, MetricSample]:
    """The metrics of experiment rows; :func:`metric_rows` inverts it.

    A row's metrics are named ``<experiment>.<venue>.<setting>.
    <parameter>=<value>.<algorithm>.<field>``: ``objective`` and
    ``clients`` (the count that ran) are exact, ``seconds`` and
    ``peak_mb`` are wall.  A row without an objective or without a
    memory pass omits that metric.
    """
    metrics: Dict[str, MetricSample] = {}
    for row in rows:
        prefix = ".".join(
            (
                row.experiment,
                row.venue,
                row.setting,
                f"{row.parameter}={row.value:g}",
                row.algorithm,
            )
        )
        metrics[f"{prefix}.clients"] = (float(row.clients), EXACT)
        metrics[f"{prefix}.seconds"] = (row.time_seconds, WALL)
        if row.objective is not None:
            metrics[f"{prefix}.objective"] = (row.objective, EXACT)
        if row.memory_mb > 0:
            metrics[f"{prefix}.peak_mb"] = (row.memory_mb, WALL)
    return metrics


def metric_rows(metrics: Dict[str, MetricSample]) -> List[Row]:
    """Rows back from :func:`row_metrics` names, in metric order.

    Experiment and venue names hold no ``.``, settings no ``=``, and
    algorithm names no ``.``; the split below relies on exactly that.
    """
    fields: Dict[str, Dict[str, float]] = {}
    for name, (value, _kind) in metrics.items():
        prefix, _, field_name = name.rpartition(".")
        fields.setdefault(prefix, {})[field_name] = value
    rows = []
    for prefix, values in fields.items():
        head, _, algorithm = prefix.rpartition(".")
        head, _, value = head.rpartition("=")
        experiment, venue, rest = head.split(".", 2)
        setting, _, parameter = rest.rpartition(".")
        rows.append(
            Row(
                experiment=experiment,
                venue=venue,
                setting=setting,
                parameter=parameter,
                value=float(value),
                algorithm=algorithm,
                time_seconds=values["seconds"],
                memory_mb=values.get("peak_mb", 0.0),
                objective=values.get("objective"),
                clients=int(values["clients"]),
            )
        )
    return rows


def _experiment_suite(name: str) -> Dict[str, MetricSample]:
    """One run of an experiment sweep at the ``REPRO_SCALE`` scale."""
    return row_metrics(EXPERIMENTS[name]())


#: Registered suites.  Tests may install fakes; the committed baseline
#: files cover the real ones.
SUITES: Dict[str, Callable[[], Dict[str, MetricSample]]] = {
    "small": _suite_small,
    "matrix": _suite_matrix,
    "stream": _suite_stream,
    **{name: partial(_experiment_suite, name) for name in EXPERIMENTS},
}


def run_suite(name: str) -> Dict[str, MetricSample]:
    """Execute suite ``name`` once under the ``perfgate.suite`` span."""
    builder = SUITES.get(name)
    if builder is None:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    with _trace.span("perfgate.suite", suite=name):
        return builder()


def _median_of_runs(
    name: str, runs: int
) -> Dict[str, MetricSample]:
    """Per-metric medians over ``runs`` suite executions.

    Raises ``ValueError`` when an exact metric differs between runs
    (or is missing from one): a median would hide that the suite does
    not repeat, and zero tolerance would then gate noise.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    samples: Dict[str, List[float]] = {}
    kinds: Dict[str, str] = {}
    for _ in range(runs):
        for metric, (value, kind) in run_suite(name).items():
            samples.setdefault(metric, []).append(value)
            kinds[metric] = kind
    for metric, values in samples.items():
        if kinds[metric] == EXACT and (
            len(values) != runs or len(set(values)) > 1
        ):
            raise ValueError(
                f"suite {name!r}: exact metric {metric} differs "
                f"between runs: {values}"
            )
    return {
        metric: (statistics.median(values), kinds[metric])
        for metric, values in samples.items()
    }


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------
@dataclass
class Baseline:
    """A committed measurement: suite medians plus provenance."""

    suite: str
    runs: int
    created: str
    git_sha: Optional[str]
    fingerprint: Dict[str, object]
    metrics: Dict[str, MetricSample]

    def to_dict(self) -> Dict[str, object]:
        """JSON form (schema :data:`BASELINE_SCHEMA`)."""
        return {
            "schema": BASELINE_SCHEMA,
            "suite": self.suite,
            "runs": self.runs,
            "created": self.created,
            "git_sha": self.git_sha,
            "fingerprint": self.fingerprint,
            "metrics": {
                name: {"kind": kind, "value": value}
                for name, (value, kind) in self.metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Baseline":
        """Inverse of :meth:`to_dict`."""
        schema = payload.get("schema")
        if schema != BASELINE_SCHEMA:
            raise ValueError(
                f"unsupported baseline schema {schema!r} "
                f"(expected {BASELINE_SCHEMA})"
            )
        raw = payload.get("metrics", {})
        return cls(
            suite=str(payload["suite"]),
            runs=int(payload.get("runs", 1)),
            created=str(payload.get("created", "")),
            git_sha=payload.get("git_sha"),  # type: ignore[arg-type]
            fingerprint=dict(payload.get("fingerprint", {})),
            metrics={
                str(name): (
                    float(entry["value"]), str(entry["kind"])
                )
                for name, entry in raw.items()
            },
        )

    def save(self, path: Path) -> None:
        """Write the baseline as stable, diff-friendly JSON."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def record_baseline(
    suite: str, runs: int = 5, path: Optional[Path] = None
) -> Baseline:
    """Measure ``suite`` ``runs`` times and keep per-metric medians.

    ``path`` additionally writes the baseline file (the committed
    ``BENCH_<suite>.json``).
    """
    baseline = Baseline(
        suite=suite,
        runs=runs,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_sha=git_sha(),
        fingerprint=machine_fingerprint(),
        metrics=_median_of_runs(suite, runs),
    )
    if path is not None:
        baseline.save(path)
    return baseline


def load_baseline(path: Path) -> Baseline:
    """Read a baseline written by :meth:`Baseline.save`."""
    with open(path) as handle:
        return Baseline.from_dict(json.load(handle))


def default_baseline_path(
    suite: str, root: Optional[Path] = None
) -> Path:
    """``<root>/BENCH_<suite>.json`` (root defaults to the cwd)."""
    base = Path(root) if root is not None else Path.cwd()
    return base / f"BENCH_{suite}.json"


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
@dataclass
class GateEntry:
    """One metric's baseline-vs-current verdict."""

    name: str
    kind: str
    baseline_value: Optional[float]
    current_value: Optional[float]
    tolerance: float
    status: str  # ok | drift | missing | new | skipped
    note: str = ""

    @property
    def drifted(self) -> bool:
        """Whether this entry fails the gate."""
        return self.status in ("drift", "missing", "new")


@dataclass
class GateReport:
    """The full verdict of one baseline-vs-current comparison."""

    suite: str
    fingerprint_match: bool
    wall_tolerance: float
    entries: List[GateEntry] = field(default_factory=list)

    @property
    def drifted(self) -> List[GateEntry]:
        """Entries that fail the gate, in metric-name order."""
        return [entry for entry in self.entries if entry.drifted]

    @property
    def passed(self) -> bool:
        """``True`` when no metric drifted."""
        return not self.drifted

    def describe(self) -> str:
        """Human-readable comparison table plus a PASS/FAIL verdict."""
        lines = [
            f"perf gate: suite {self.suite!r}"
            + (
                ""
                if self.fingerprint_match
                else "  (machine fingerprint differs: wall metrics "
                "informational)"
            ),
            f"  {'metric':<36} {'kind':<6} {'baseline':>12} "
            f"{'current':>12} {'status':>8}",
        ]
        for entry in self.entries:
            baseline = (
                "-" if entry.baseline_value is None
                else f"{entry.baseline_value:.6g}"
            )
            current = (
                "-" if entry.current_value is None
                else f"{entry.current_value:.6g}"
            )
            line = (
                f"  {entry.name:<36} {entry.kind:<6} {baseline:>12} "
                f"{current:>12} {entry.status:>8}"
            )
            if entry.note:
                line += f"  ({entry.note})"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        drifted = ", ".join(e.name for e in self.drifted)
        lines.append(
            f"  -> {verdict}"
            + (f": drifted metrics: {drifted}" if drifted else "")
        )
        return "\n".join(lines)


def compare_to_baseline(
    baseline: Baseline,
    current: Dict[str, MetricSample],
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    strict_wall: bool = False,
) -> GateReport:
    """Judge ``current`` against ``baseline`` metric by metric.

    Exact metrics drift on *any* difference.  Wall metrics drift when
    they leave the ``wall_tolerance`` relative band, and are only
    enforced on the recording machine (fingerprint match) unless
    ``strict_wall``.  Metrics missing from either side fail: a vanished
    metric hides a regression, a new one needs a re-recorded baseline.
    """
    match = machine_fingerprint() == baseline.fingerprint
    report = GateReport(
        suite=baseline.suite,
        fingerprint_match=match,
        wall_tolerance=wall_tolerance,
    )
    for name in sorted(set(baseline.metrics) | set(current)):
        recorded = baseline.metrics.get(name)
        measured = current.get(name)
        if measured is None:
            value, kind = recorded  # type: ignore[misc]
            report.entries.append(
                GateEntry(
                    name=name,
                    kind=kind,
                    baseline_value=value,
                    current_value=None,
                    tolerance=0.0,
                    status="missing",
                    note="metric no longer measured",
                )
            )
            continue
        if recorded is None:
            value, kind = measured
            report.entries.append(
                GateEntry(
                    name=name,
                    kind=kind,
                    baseline_value=None,
                    current_value=value,
                    tolerance=0.0,
                    status="new",
                    note="not in baseline; re-record it",
                )
            )
            continue
        base_value, kind = recorded
        cur_value, _ = measured
        if kind == EXACT:
            status = "ok" if cur_value == base_value else "drift"
            report.entries.append(
                GateEntry(
                    name=name,
                    kind=kind,
                    baseline_value=base_value,
                    current_value=cur_value,
                    tolerance=0.0,
                    status=status,
                )
            )
            continue
        if not match and not strict_wall:
            report.entries.append(
                GateEntry(
                    name=name,
                    kind=kind,
                    baseline_value=base_value,
                    current_value=cur_value,
                    tolerance=wall_tolerance,
                    status="skipped",
                    note="fingerprint mismatch",
                )
            )
            continue
        band = wall_tolerance * abs(base_value)
        status = (
            "ok" if abs(cur_value - base_value) <= band else "drift"
        )
        report.entries.append(
            GateEntry(
                name=name,
                kind=kind,
                baseline_value=base_value,
                current_value=cur_value,
                tolerance=wall_tolerance,
                status=status,
            )
        )
    _metrics.add("perfgate.comparisons")
    if report.drifted:
        _metrics.add("perfgate.drifted_metrics", len(report.drifted))
    return report


def gate(
    suite: str,
    baseline_path: Path,
    runs: int = 3,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    strict_wall: bool = False,
) -> GateReport:
    """Load the baseline, re-measure, and compare — the CI entry point."""
    baseline = load_baseline(baseline_path)
    if baseline.suite != suite:
        raise ValueError(
            f"baseline at {baseline_path} records suite "
            f"{baseline.suite!r}, not {suite!r}"
        )
    current = _median_of_runs(suite, runs)
    return compare_to_baseline(
        baseline,
        current,
        wall_tolerance=wall_tolerance,
        strict_wall=strict_wall,
    )
