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

A session keeps its warm engine and the running distance ledger, and
nothing per query: each query's time and counter delta are its
``result.stats``, and a request with ``explain=True`` gets its
:class:`~repro.obs.explain.ExplainReport` as ``result.explain``.
Spans and metrics go to whichever collectors are active
(:func:`repro.obs.observe`, or ``trace.use`` / ``metrics.use``).

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

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..errors import ParallelExecutionError, QueryError
from ..indoor.entities import Client, FacilitySets
from ..index.distance import DistanceStats, VIPDistanceEngine
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.explain import explain_query
from .efficient import EfficientOptions
from .problem import IFLSProblem
from .queries import EFFICIENT, EFFICIENT_SOLVERS, MINMAX, IFLSEngine
from .request import QueryRequest
from .result import IFLSResult
from .stats import distance_invariant_violations


def check_batch(batch: Iterable[Any]) -> List[QueryRequest]:
    """The batch executor's admission check, run before any work.

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
class SessionReport:
    """Aggregated cache statistics of a session."""

    queries: int
    totals: Dict[str, int]
    cache_sizes: Dict[str, int]
    cache_entries: int
    cache_bytes: int
    max_cache_entries: Optional[int]

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

    def describe(self) -> str:
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
        ``None`` (default) keeps caches unbounded, ``0`` stores nothing.
    """

    def __init__(
        self,
        engine: IFLSEngine,
        max_cache_entries: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.tree = engine.tree
        self.distances = VIPDistanceEngine(
            engine.tree,
            max_cache_entries=max_cache_entries,
            use_kernels=engine.use_kernels,
        )
        self.queries_answered = 0

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
        span, correlating it with whatever minted the id (the service
        or ``Engine.query``).
        """
        return self._solve(
            clients, facilities, objective, options, label, request_id
        )

    def answer(
        self, request: QueryRequest, default_label: str
    ) -> IFLSResult:
        """Answer one batch request on the warm distance engine.

        ``default_label`` names the query when the request carries no
        label of its own.  A request with ``explain=True`` runs under
        the EXPLAIN profiler
        (:func:`~repro.obs.explain.explain_query`), and its report,
        with the session's memo size after the query as
        ``cache_entries``, comes back as ``result.explain``.
        """
        return self._solve(
            request.clients,
            request.facilities,
            request.objective,
            request.options(),
            request.label or default_label,
            request.request_id,
            explain=request.explain,
        )

    def _solve(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        objective: str,
        options: Optional[EfficientOptions],
        label: str,
        request_id: str,
        explain: bool = False,
    ) -> IFLSResult:
        solver = EFFICIENT_SOLVERS.get(objective)
        if solver is None:
            raise QueryError(f"unknown objective {objective!r}")
        problem = IFLSProblem(self.distances, list(clients), facilities)
        span_attrs = {"objective": objective, "label": label}
        if request_id:
            span_attrs["request_id"] = request_id
        with _trace.span("session.query", **span_attrs):
            if explain:
                result, report = explain_query(
                    lambda: solver(problem, options),
                    self.distances.stats,
                    label=label,
                    objective=objective,
                    algorithm=EFFICIENT,
                )
                report.cache_entries = self.distances.cache_entries()
                result.explain = report
            else:
                result = solver(problem, options)
        _metrics.set_gauge("cache.entries", self.distances.cache_entries())
        self.queries_answered += 1
        return result

    def run(
        self, batch: Iterable[QueryRequest], workers: int = 1
    ) -> List[IFLSResult]:
        """Answer a whole batch; results always follow submission order.

        ``batch`` items are :class:`~repro.core.request.QueryRequest`
        objects for the ``"efficient"`` algorithm; anything else raises
        :class:`QueryError` before any query runs (:func:`check_batch`).
        A request without a label of its own is named ``q<n>`` after
        the session's running count, whatever the worker count.

        ``workers=1`` (default) answers serially on this session's own
        warm engine.  ``workers > 1`` shards a batch of two or more
        queries across a process pool: each worker runs its own warm
        session over the shared venue + VIP-tree, and each result's
        ``stats.distance`` is added to *this* session's ledger, so
        :meth:`report` keeps describing everything the session has
        answered.  Answers are identical for every worker count; only
        cache-warmth accounting differs.  The workers' memo tables die
        with the pool, so ``report().cache_entries`` keeps reflecting
        this process's own engine only.  Raises
        :class:`~repro.errors.ParallelExecutionError` when a shard
        raises, a worker dies, or the summed deltas break a ledger
        identity.
        """
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        batch = check_batch(batch)
        if workers == 1 or len(batch) <= 1:
            return [
                self.answer(request, f"q{self.queries_answered + 1}")
                for request in batch
            ]
        from .parallel import _run_batch_sharded

        results = _run_batch_sharded(
            self.engine,
            batch,
            workers,
            self.distances.max_cache_entries,
            self.queries_answered,
        )
        delta = DistanceStats()
        for result in results:
            delta.merge(result.stats.distance)
        violations = distance_invariant_violations(delta.snapshot())
        if violations:
            raise ParallelExecutionError(
                "sharded counters broke ledger identities: "
                + "; ".join(violations)
            )
        self.distances.stats.merge(delta)
        self.queries_answered += len(batch)
        return results

    # ------------------------------------------------------------------
    # Cache statistics and lifecycle
    # ------------------------------------------------------------------
    def report(self) -> SessionReport:
        """Current cache statistics: the running ledger and memo size."""
        return SessionReport(
            queries=self.queries_answered,
            totals=self.distances.stats.snapshot(),
            cache_sizes=self.distances.cache_sizes(),
            cache_entries=self.distances.cache_entries(),
            cache_bytes=self.distances.cache_bytes(),
            max_cache_entries=self.distances.max_cache_entries,
        )

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
