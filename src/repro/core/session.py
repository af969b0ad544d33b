"""Batched IFLS execution with warm cross-query distance caches.

The paper's efficiency argument (Section 5.3.1) rests on reusing
``iMinD`` computations across clients *within* one query.
:class:`QuerySession` extends that reuse *across* queries: it owns a
venue's VIP-tree and one persistent :class:`VIPDistanceEngine`, and
answers a sequence of IFLS queries — mixed objectives, varying client
and facility sets — while the partition-pair, door-pair, and
per-(partition, node) ``iMinD`` memos stay warm.  Distances depend
only on the venue geometry, never on the query, so a warm answer is
bit-identical to a cold one; what changes is how many matrix
computations the batch pays.

Lifecycle::

    session = QuerySession(engine)            # or engine.session()
    result = session.query(clients, facilities)          # warm minmax
    results = session.run(requests)                      # QueryRequest seq
    print(session.report().describe())                   # cache stats

Warm caches are safe to reuse for as long as the venue geometry
(partitions, doors, door connectivity) is unchanged — client crowds and
facility sets may vary freely between queries.  After a venue edit the
tree itself is stale: rebuild the :class:`~repro.core.queries.IFLSEngine`
and start a new session (:meth:`QuerySession.invalidate` merely drops
the memos, for A/B-testing cold behaviour on a live session).

``max_cache_entries`` bounds the combined memo size (oldest entries are
evicted first); ``None`` keeps every distance ever computed.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..index.distance import VIPDistanceEngine
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.explain import ExplainReport, explain_query
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .efficient import EfficientOptions
from .problem import IFLSProblem
from .queries import EFFICIENT, EFFICIENT_SOLVERS, MINMAX, IFLSEngine
from .request import QueryRequest
from .result import IFLSResult


def check_batch(batch: Iterable[Any]) -> List[QueryRequest]:
    """The batch executors' admission check, run before any work.

    Every item must be a :class:`~repro.core.request.QueryRequest` for
    the ``"efficient"`` algorithm — sessions answer through the
    efficient solvers only; use :meth:`repro.api.Engine.query` for
    baseline/bruteforce runs.  Raises :class:`QueryError` naming the
    first item that is not; returns the batch as a list.
    """
    requests = list(batch)
    for item in requests:
        if not isinstance(item, QueryRequest):
            raise QueryError(
                "batch items must be QueryRequest, got "
                f"{type(item).__name__}"
            )
        if item.algorithm != EFFICIENT:
            raise QueryError(
                f"batch execution answers the {EFFICIENT!r} algorithm "
                f"only, got {item.algorithm!r}; use the library's "
                "Engine.query for baseline/bruteforce runs"
            )
    return requests


@dataclass
class SessionQueryRecord:
    """Per-query cache effectiveness: engine-counter deltas.

    ``elapsed_seconds`` and ``distance_delta`` are the query's own
    measurement, copied from its ``result.stats``.
    """

    index: int
    label: str
    objective: str
    answer: Optional[PartitionId]
    objective_value: float
    clients: int
    elapsed_seconds: float
    distance_delta: Dict[str, int]
    cache_entries_after: int
    request_id: str = ""

    @property
    def distance_computations(self) -> int:
        """Matrix computations this query actually paid."""
        return self.distance_delta["distance_computations"]

    @property
    def cache_hits(self) -> int:
        """Memo hits this query was served (all three caches)."""
        return (
            self.distance_delta["d2d_cache_hits"]
            + self.distance_delta["imind_cache_hits"]
            + self.distance_delta["imind_node_cache_hits"]
        )

    @property
    def cache_hit_rate(self) -> float:
        """Hits per distance request within this query."""
        calls = self.distance_computations + self.cache_hits
        return self.cache_hits / calls if calls else 0.0


@dataclass
class SessionReport:
    """Aggregated cache statistics of a session."""

    queries: int
    totals: Dict[str, int]
    cache_sizes: Dict[str, int]
    cache_entries: int
    cache_bytes: int
    max_cache_entries: Optional[int]
    records: List[SessionQueryRecord] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        """Total memo hits across the session."""
        return (
            self.totals["d2d_cache_hits"]
            + self.totals["imind_cache_hits"]
            + self.totals["imind_node_cache_hits"]
        )

    @property
    def cache_hit_rate(self) -> float:
        """Session-wide hits per distance request."""
        calls = self.totals["distance_computations"] + self.cache_hits
        return self.cache_hits / calls if calls else 0.0

    def describe(self, per_query: bool = False) -> str:
        """Human-readable cache-statistics report."""
        lines = [
            f"session: {self.queries} queries answered",
            (
                f"caches:  {self.cache_entries} entries "
                f"(~{self.cache_bytes / 1024:.1f} KiB)"
                + (
                    f", budget {self.max_cache_entries}"
                    if self.max_cache_entries is not None
                    else ", unbounded"
                )
            ),
            "         "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.cache_sizes.items())
            ),
            (
                f"hits:    {self.cache_hits} "
                f"({self.cache_hit_rate:.0%} of "
                f"{self.totals['distance_computations'] + self.cache_hits}"
                f" distance requests), "
                f"{self.totals['cache_evictions']} evictions"
            ),
            (
                f"paid:    {self.totals['distance_computations']} "
                f"distance computations, "
                f"{self.totals['d2d_lookups']} door-pair lookups"
            ),
        ]
        if per_query and self.records:
            lines.append("")
            lines.append(
                f"{'#':>4} {'label':<14} {'objective':<9} {'|C|':>6} "
                f"{'time(s)':>9} {'computed':>9} {'hits':>9} {'rate':>6}"
            )
            for r in self.records:
                lines.append(
                    f"{r.index:>4} {r.label[:14]:<14} "
                    f"{r.objective:<9} {r.clients:>6} "
                    f"{r.elapsed_seconds:>9.4f} "
                    f"{r.distance_computations:>9} {r.cache_hits:>9} "
                    f"{r.cache_hit_rate:>6.0%}"
                )
        return "\n".join(lines)


class QuerySession:
    """A batch-execution layer over one venue's VIP-tree.

    Parameters
    ----------
    engine:
        The prepared :class:`~repro.core.queries.IFLSEngine` whose tree
        the session shares.  The session gets its *own* persistent
        :class:`VIPDistanceEngine`, so its cache statistics are not
        polluted by (and do not pollute) interactive queries on the
        engine.
    max_cache_entries:
        Bounded-memory eviction knob, forwarded to the distance engine;
        ``None`` (default) keeps caches unbounded.
    keep_records:
        Collect a :class:`SessionQueryRecord` per query (per-query
        counter deltas).  Disable for very long-running sessions where
        even one record per query is too much bookkeeping.
    trace:
        Optional :class:`~repro.obs.trace.Tracer`.  When given, it is
        scope-installed as the process-global tracer for the duration
        of every :meth:`query` / :meth:`run` call, so all spans of the
        instrumentation contract (``docs/OBSERVABILITY.md``) land in
        it without touching the globals yourself.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`, installed
        the same way for the ``query.*`` / ``cache.*`` / ``parallel.*``
        metrics.  Leaving both ``None`` keeps whatever collectors are
        (or are not) globally active — the default is fully
        uninstrumented execution.
    explain:
        Profile every query through the EXPLAIN profiler: each
        :meth:`query` (and each query of a sharded :meth:`run`)
        appends an :class:`~repro.obs.explain.ExplainReport` to
        ``explain_reports``, carrying per-phase counter attribution,
        the Lemma 5.1 bound evolution, VIP-tree visit counts, and the
        warm-cache breakdown.  When a ``trace`` tracer is also given,
        the profiled spans are absorbed into it afterwards.
    """

    def __init__(
        self,
        engine: IFLSEngine,
        max_cache_entries: Optional[int] = None,
        keep_records: bool = True,
        trace: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        explain: bool = False,
    ) -> None:
        self.engine = engine
        self.tree = engine.tree
        self.distances = VIPDistanceEngine(
            engine.tree,
            memoize=True,
            max_cache_entries=max_cache_entries,
            use_kernels=engine.use_kernels,
        )
        self.keep_records = keep_records
        self.records: List[SessionQueryRecord] = []
        self.queries_answered = 0
        self.tracer = trace
        self.metrics = metrics
        self.explain = explain
        self.explain_reports: List[ExplainReport] = []

    @contextmanager
    def _observing(self) -> Iterator[None]:
        """Install this session's collectors (if any) for one call."""
        if self.tracer is None and self.metrics is None:
            yield
            return
        with ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(_trace.use(self.tracer))
            if self.metrics is not None:
                stack.enter_context(_metrics.use(self.metrics))
            yield

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def query(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        objective: str = MINMAX,
        options: Optional[EfficientOptions] = None,
        label: str = "",
        request_id: str = "",
    ) -> IFLSResult:
        """Answer one query on the session's warm distance engine.

        ``request_id`` (when non-empty) tags the ``session.query``
        span and the query's :class:`SessionQueryRecord`, correlating
        them with whatever minted the id (the service or
        ``Engine.query``).
        """
        solver = EFFICIENT_SOLVERS.get(objective)
        if solver is None:
            raise QueryError(f"unknown objective {objective!r}")
        problem = IFLSProblem(self.distances, list(clients), facilities)
        span_attrs = {"objective": objective, "label": label}
        if request_id:
            span_attrs["request_id"] = request_id
        with self._observing():
            with _trace.span("session.query", **span_attrs):
                if self.explain:
                    result, report = explain_query(
                        lambda: solver(problem, options),
                        self.distances.stats,
                        label=label,
                        objective=objective,
                        algorithm=EFFICIENT,
                    )
                    report.index = self.queries_answered + 1
                    report.cache_entries = self.distances.cache_entries()
                    self.explain_reports.append(report)
                else:
                    result = solver(problem, options)
            _metrics.set_gauge(
                "cache.entries", self.distances.cache_entries()
            )
        self.queries_answered += 1
        if self.keep_records:
            self.records.append(
                SessionQueryRecord(
                    index=self.queries_answered,
                    label=label,
                    objective=objective,
                    answer=result.answer,
                    objective_value=result.objective,
                    clients=len(problem.clients),
                    elapsed_seconds=result.stats.elapsed_seconds,
                    distance_delta=result.stats.distance.snapshot(),
                    cache_entries_after=self.distances.cache_entries(),
                    request_id=request_id,
                )
            )
        return result

    def answer(
        self, request: QueryRequest, default_label: str
    ) -> IFLSResult:
        """Answer one batch request through :meth:`query`.

        ``default_label`` names the query when the request carries no
        label of its own.
        """
        return self.query(
            request.clients,
            request.facilities,
            objective=request.objective,
            options=request.options(),
            label=request.label or default_label,
            request_id=request.request_id,
        )

    def run(
        self, batch: Iterable[QueryRequest], workers: int = 1
    ) -> List[IFLSResult]:
        """Answer a whole batch; results always follow submission order.

        ``batch`` items are :class:`~repro.core.request.QueryRequest`
        objects for the ``"efficient"`` algorithm; anything else raises
        :class:`QueryError` before any query runs (:func:`check_batch`).

        ``workers=1`` (default) answers serially on this session's own
        warm engine — the original code path, byte for byte.
        ``workers > 1`` shards the batch across a process pool
        (:func:`~repro.core.parallel.run_batch_parallel`): each worker
        runs its own warm session over the shared venue + VIP-tree, and
        the per-worker distance counters and query records are merged
        back into *this* session afterwards, so :meth:`report` keeps
        describing everything the session has answered.  Answers are
        identical for every worker count; only cache-warmth accounting
        differs.  Note the workers' memo tables die with the pool —
        ``report().cache_entries`` keeps reflecting this process's own
        engine only.
        """
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        batch = check_batch(batch)
        if workers == 1 or len(batch) <= 1:
            return [
                self.answer(request, f"q{self.queries_answered + 1}")
                for request in batch
            ]
        from ..index.distance import DistanceStats
        from .parallel import run_batch_parallel

        with self._observing():
            outcome = run_batch_parallel(
                self.engine,
                batch,
                workers,
                max_cache_entries=self.distances.max_cache_entries,
                keep_records=self.keep_records,
                explain=self.explain,
            )
        base = self.queries_answered
        for record in outcome.report.records:
            record.index += base
            self.records.append(record)
        for report in outcome.explain_reports:
            if report.index is not None:
                report.index += base
            self.explain_reports.append(report)
        self.queries_answered += len(batch)
        self.distances.stats.merge(DistanceStats(**outcome.report.totals))
        return outcome.results

    # ------------------------------------------------------------------
    # Cache statistics and lifecycle
    # ------------------------------------------------------------------
    def report(self) -> SessionReport:
        """Current cache statistics (totals plus per-query deltas)."""
        return SessionReport(
            queries=self.queries_answered,
            totals=self.distances.stats.snapshot(),
            cache_sizes=self.distances.cache_sizes(),
            cache_entries=self.distances.cache_entries(),
            cache_bytes=self.distances.cache_bytes(),
            max_cache_entries=self.distances.max_cache_entries,
            records=list(self.records),
        )

    def take_records(self) -> List[SessionQueryRecord]:
        """Return and clear the per-query records collected so far.

        A long-lived session that keeps records drains them with this
        so the record list does not grow without bound.
        ``queries_answered`` and the distance ledger keep accumulating;
        only the record list is drained.
        """
        records = self.records
        self.records = []
        return records

    def invalidate(self) -> None:
        """Drop every memoised distance (the next query runs cold).

        Note this does *not* refresh the VIP-tree: after editing the
        venue geometry, rebuild the engine and open a new session.
        """
        self.distances.clear_caches()

    @property
    def cache_entries(self) -> int:
        """Total memoised entries currently held."""
        return self.distances.cache_entries()
