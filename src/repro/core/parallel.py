"""Sharded process-pool execution of IFLS query batches.

:class:`~repro.core.session.QuerySession` (PR 1) made batches cheap by
keeping distance memos warm across queries, but it is single-core.
Facility-location workloads shard cleanly — queries against one venue
are independent, and distances depend only on the immutable venue
geometry — so this module fans a
:class:`~repro.core.request.QueryRequest` list out over ``N`` worker
processes, each running its *own* warm session over a shared
venue + VIP-tree snapshot, and deterministically reassembles the
answers in submission order.

Index sharing
-------------
Building a VIP-tree is the expensive part, so workers never rebuild it:

* under the ``fork`` start method (Linux/macOS default here) the parent
  parks the prepared :class:`IFLSEngine` in a module global right
  before the pool forks; children inherit the whole index through
  copy-on-write for free;
* under ``spawn`` (Windows, or ``start_method="spawn"``) the engine is
  condensed into an :class:`IndexSnapshot` — venue plus tree, pickled
  once in the parent with the highest protocol — and shipped to each
  worker's initializer, which restores an engine without re-running
  tree construction.

Determinism
-----------
Results come back tagged with their submission index and are reordered
before returning, so ``outcome.results[i]`` always answers ``batch[i]``
regardless of worker count or scheduling.  Warm caches never change
answers (a warm distance equals a cold one), so every worker count
yields bit-identical ``(answer, objective, status)`` triples; only the
execution counters differ, because cache warmth is distributed
differently across workers.  Per-worker counters are merged by plain
summation (:func:`~repro.core.stats.merge_snapshots`), which preserves
the ledger invariants ``hits + computations == calls`` and
``pops <= pushes``; the merge is re-checked on every run.

Failure handling
----------------
A shard that raises — bad inputs, a crashed worker, a broken pool —
surfaces immediately as
:class:`~repro.errors.ParallelExecutionError` naming the shard, with
the original exception chained; nothing hangs waiting for a dead
process, because :class:`concurrent.futures.ProcessPoolExecutor`
converts worker death into ``BrokenProcessPool``.

Entry points: :func:`run_batch_parallel` (standalone) and
``QuerySession.run(batch, workers=N)`` (session-integrated; merges the
pool's counters into the session's running totals).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParallelExecutionError
from ..index.snapshot import IndexSnapshot
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.explain import ExplainReport
from ..obs.metrics import MetricsRegistry
from ..obs.trace import SpanRecord, Tracer
from .queries import IFLSEngine
from .request import QueryRequest
from .result import IFLSResult
from .session import (
    QuerySession,
    SessionQueryRecord,
    SessionReport,
    check_batch,
)
from .stats import (
    QueryStats,
    distance_invariant_violations,
    merge_query_stats,
    merge_snapshots,
)

FORK = "fork"
SPAWN = "spawn"


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    if FORK in multiprocessing.get_all_start_methods():
        return FORK
    return SPAWN


@dataclass
class ShardOutcome:
    """What one worker sends back for its shard of the batch.

    ``totals`` and ``records`` are *deltas of this shard only* — a pool
    worker may execute several shards on one warm session, so shard
    accounting must not re-report earlier work.  The cache footprint
    (``cache_sizes``/``cache_entries``/``cache_bytes``) is the worker's
    whole memo table, tagged with ``worker_pid`` so the merge counts
    each process once (its largest observation) instead of once per
    shard.

    When the parent had observability enabled, ``trace_records`` holds
    the worker's finished spans (absorbed into the parent tracer on
    reassembly, tagged with the worker pid) and ``metrics_snapshot``
    the worker registry's image (folded into the parent registry with
    the documented merge semantics).  ``explain_reports`` carries one
    :class:`~repro.obs.explain.ExplainReport` per shard query when the
    batch ran in explain mode, already rewritten to 1-based submission
    indices like ``records``.
    """

    indices: List[int]
    results: List[IFLSResult]
    totals: Dict[str, int]
    cache_sizes: Dict[str, int]
    cache_entries: int
    cache_bytes: int
    worker_pid: int
    records: List[SessionQueryRecord] = field(default_factory=list)
    trace_records: List[SpanRecord] = field(default_factory=list)
    metrics_snapshot: Optional[Dict] = None
    explain_reports: List[ExplainReport] = field(default_factory=list)


@dataclass
class ParallelBatchOutcome:
    """Reassembled results plus the merged session-level statistics.

    ``results[i]`` answers ``batch[i]``.  ``report`` aggregates every
    worker's distance counters and cache footprint (sizes/bytes sum the
    per-worker memos, i.e. the pool's combined footprint, which is
    larger than one shared cache would be).  ``query_stats`` merges the
    per-result :class:`QueryStats` for queue/pruning invariants.
    ``explain_reports`` holds one per-query
    :class:`~repro.obs.explain.ExplainReport` in submission order when
    the batch ran with ``explain=True`` (empty otherwise).
    """

    results: List[IFLSResult]
    report: SessionReport
    query_stats: QueryStats
    workers: int
    start_method: str
    elapsed_seconds: float
    explain_reports: List[ExplainReport] = field(default_factory=list)

    @property
    def answers(self) -> List[Tuple[Optional[int], float]]:
        """The deterministic payload: (answer, objective) per query."""
        return [(r.answer, r.objective) for r in self.results]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
# One warm session per worker process, created by the pool initializer
# and reused for every shard the worker executes.
_WORKER_SESSION: Optional[QuerySession] = None
# Fork-shared engine: set in the parent immediately before the pool
# forks, inherited copy-on-write by the children, cleared afterwards.
_FORK_ENGINE: Optional[IFLSEngine] = None


def _init_fork_worker(
    max_cache_entries: Optional[int], keep_records: bool
) -> None:
    """Worker initializer under ``fork``: wrap the inherited engine."""
    global _WORKER_SESSION
    # The fork inherited the parent's process-global collectors; spans
    # recorded into those copies would be lost.  Workers collect into
    # per-shard collectors instead (see _run_shard).  The same goes for
    # an inherited flight-recorder sink: records appended to the forked
    # copy of the parent's ring would never be seen again.
    _trace.uninstall()
    _trace.set_flight_sink(None)
    _metrics.uninstall()
    if _FORK_ENGINE is None:  # pragma: no cover - defensive
        raise ParallelExecutionError(
            "fork worker started without an inherited engine"
        )
    _WORKER_SESSION = QuerySession(
        _FORK_ENGINE,
        max_cache_entries=max_cache_entries,
        keep_records=keep_records,
    )


def _init_spawn_worker(
    payload: bytes, max_cache_entries: Optional[int], keep_records: bool
) -> None:
    """Worker initializer under ``spawn``: restore the snapshot."""
    global _WORKER_SESSION
    engine = IndexSnapshot.from_bytes(payload).restore()
    _WORKER_SESSION = QuerySession(
        engine,
        max_cache_entries=max_cache_entries,
        keep_records=keep_records,
    )


def _run_shard(
    shard: Sequence[Tuple[int, QueryRequest]],
    submitted_at: Optional[float] = None,
    observe_trace: bool = False,
    observe_metrics: bool = False,
    observe_explain: bool = False,
) -> ShardOutcome:
    """Answer one shard on this worker's warm session.

    ``shard`` carries ``(submission_index, request)`` pairs; record
    indices are rewritten to the 1-based submission position so the
    merged report reads like one serial session.  When the parent had
    collectors active it sets the ``observe_*`` flags: the shard then
    runs under a fresh per-shard tracer/registry whose records travel
    back in the :class:`ShardOutcome`.  ``observe_explain`` flips the
    worker session into explain mode for this shard, shipping the
    per-query :class:`~repro.obs.explain.ExplainReport` list home with
    rewritten submission indices.  ``submitted_at`` is the parent's
    ``time.time()`` at submission — queue wait is measured on the wall
    clock because monotonic clocks do not compare across processes
    (documented approximate).
    """
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - defensive
        raise ParallelExecutionError("worker session was not initialised")
    tracer = Tracer() if observe_trace else None
    registry = MetricsRegistry() if observe_metrics else None
    before = session.distances.stats.snapshot()
    records_start = len(session.records)
    explain_was = session.explain
    explain_start = len(session.explain_reports)
    session.explain = observe_explain
    results: List[IFLSResult] = []
    indices: List[int] = []
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(_trace.use(tracer))
        if registry is not None:
            stack.enter_context(_metrics.use(registry))
        if submitted_at is not None:
            _metrics.record(
                "parallel.shard.queue_wait_seconds",
                max(0.0, time.time() - submitted_at),
            )
        _metrics.add("parallel.shards")
        shard_attrs = {"queries": len(shard)}
        request_ids = _trace.dedup_request_ids(
            request.request_id for _, request in shard
        )
        if request_ids:
            # A list, so the attribute survives a JSON round-trip
            # (tuples decode as lists).
            shard_attrs["request_ids"] = list(request_ids)
        shard_started = time.perf_counter()
        with _trace.span("parallel.shard", **shard_attrs):
            for index, request in shard:
                results.append(session.answer(request, f"q{index + 1}"))
                indices.append(index)
        _metrics.record(
            "parallel.shard.seconds",
            time.perf_counter() - shard_started,
        )
    session.explain = explain_was
    after = session.distances.stats.snapshot()
    totals = {
        key: value - before.get(key, 0) for key, value in after.items()
    }
    records = list(session.records[records_start:])
    for record, index in zip(records, indices):
        record.index = index + 1
    explain_reports = list(session.explain_reports[explain_start:])
    for report, index in zip(explain_reports, indices):
        report.index = index + 1
    return ShardOutcome(
        indices=indices,
        results=results,
        totals=totals,
        cache_sizes=session.distances.cache_sizes(),
        cache_entries=session.distances.cache_entries(),
        cache_bytes=session.distances.cache_bytes(),
        worker_pid=os.getpid(),
        records=records,
        trace_records=(
            tracer.sorted_records() if tracer is not None else []
        ),
        metrics_snapshot=(
            registry.snapshot() if registry is not None else None
        ),
        explain_reports=explain_reports,
    )


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
def shard_batch(
    batch: Sequence[QueryRequest], workers: int
) -> List[List[Tuple[int, QueryRequest]]]:
    """Deal the batch round-robin into ``workers`` indexed shards.

    Striding (worker ``w`` gets queries ``w, w + workers, …``) balances
    load when query cost drifts along the batch; the indices carried
    with each query make reassembly order-independent.  Empty shards
    are dropped, so ``workers > len(batch)`` never idles a process.
    """
    if workers < 1:
        raise ParallelExecutionError(f"workers must be >= 1, got {workers}")
    shards = [
        [
            (index, batch[index])
            for index in range(start, len(batch), workers)
        ]
        for start in range(workers)
    ]
    return [shard for shard in shards if shard]


def _merged_report(
    outcomes: Sequence[ShardOutcome],
    queries: int,
    max_cache_entries: Optional[int],
) -> SessionReport:
    """One session-level view of every worker's counters and caches."""
    totals = merge_snapshots(outcome.totals for outcome in outcomes)
    violations = distance_invariant_violations(totals)
    if violations:
        raise ParallelExecutionError(
            "merged worker statistics broke counter invariants: "
            + "; ".join(violations)
        )
    records = sorted(
        (record for outcome in outcomes for record in outcome.records),
        key=lambda record: record.index,
    )
    # A worker that executed several shards reports its (growing) memo
    # tables once per shard; keep only the largest observation per
    # process so the pool footprint is a sum over workers, not shards.
    last_per_worker: Dict[int, ShardOutcome] = {}
    for outcome in outcomes:
        seen = last_per_worker.get(outcome.worker_pid)
        if seen is None or outcome.cache_entries >= seen.cache_entries:
            last_per_worker[outcome.worker_pid] = outcome
    per_worker = list(last_per_worker.values())
    return SessionReport(
        queries=queries,
        totals=totals,
        cache_sizes=merge_snapshots(o.cache_sizes for o in per_worker),
        cache_entries=sum(o.cache_entries for o in per_worker),
        cache_bytes=sum(o.cache_bytes for o in per_worker),
        max_cache_entries=max_cache_entries,
        records=records,
    )


def _empty_outcome(start_method: str) -> ParallelBatchOutcome:
    return ParallelBatchOutcome(
        results=[],
        report=SessionReport(
            queries=0,
            totals={},
            cache_sizes={},
            cache_entries=0,
            cache_bytes=0,
            max_cache_entries=None,
        ),
        query_stats=QueryStats(),
        workers=0,
        start_method=start_method,
        elapsed_seconds=0.0,
    )


def _run_serial(
    engine: IFLSEngine,
    batch: Sequence[QueryRequest],
    max_cache_entries: Optional[int],
    keep_records: bool,
    explain: bool = False,
) -> ParallelBatchOutcome:
    """The ``workers=1`` path: one in-process warm session.

    This *is* the serial :class:`QuerySession` code path — no pool, no
    pickling — so its output is byte-identical to
    ``engine.session().run(batch)``.
    """
    session = QuerySession(
        engine,
        max_cache_entries=max_cache_entries,
        keep_records=keep_records,
        explain=explain,
    )
    started = time.perf_counter()
    results = session.run(batch)
    elapsed = time.perf_counter() - started
    return ParallelBatchOutcome(
        results=results,
        report=session.report(),
        query_stats=merge_query_stats(r.stats for r in results),
        workers=1,
        start_method="serial",
        elapsed_seconds=elapsed,
        explain_reports=list(session.explain_reports),
    )


def run_batch_parallel(
    engine: IFLSEngine,
    batch: Sequence[QueryRequest],
    workers: int,
    max_cache_entries: Optional[int] = None,
    keep_records: bool = True,
    start_method: Optional[str] = None,
    explain: bool = False,
) -> ParallelBatchOutcome:
    """Answer ``batch`` on ``workers`` processes sharing one index.

    Parameters
    ----------
    engine:
        The prepared engine whose venue + VIP-tree the workers share
        (forked or snapshotted — never rebuilt).
    workers:
        Requested pool size; capped at ``len(batch)`` so no process
        starts idle.  ``1`` runs serially in-process and is
        byte-identical to ``engine.session().run(batch)``.
    max_cache_entries / keep_records:
        Forwarded to each worker's :class:`QuerySession` (the cache
        budget applies *per worker*).
    start_method:
        ``"fork"``, ``"spawn"``, or ``None`` for the platform default
        (fork where available).
    explain:
        Profile every query in the workers and collect the per-query
        :class:`~repro.obs.explain.ExplainReport` list (submission
        order) into ``outcome.explain_reports``.

    Raises
    ------
    QueryError
        Before any worker starts, when a batch item is not an
        ``"efficient"`` :class:`~repro.core.request.QueryRequest`
        (:func:`~repro.core.session.check_batch`).
    ParallelExecutionError
        When a shard raises, a worker process dies, or the merged
        counters break an invariant.
    """
    global _FORK_ENGINE
    batch = check_batch(batch)
    method = start_method or default_start_method()
    if method not in (FORK, SPAWN):
        raise ParallelExecutionError(
            f"unknown start method {method!r}; use {FORK!r} or {SPAWN!r}"
        )
    if not batch:
        return _empty_outcome(method)
    workers = min(workers, len(batch))
    if workers < 1:
        raise ParallelExecutionError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return _run_serial(
            engine, batch, max_cache_entries, keep_records, explain
        )

    observe_trace = _trace.active() is not None
    observe_metrics = _metrics.active() is not None
    with _trace.span(
        "parallel.run", queries=len(batch), start_method=method
    ) as run_span:
        with _trace.span("parallel.prepare"):
            shards = shard_batch(batch, workers)
            if method == FORK:
                context = multiprocessing.get_context(FORK)
                initializer = _init_fork_worker
                initargs: tuple = (max_cache_entries, keep_records)
                _FORK_ENGINE = engine
            else:
                context = multiprocessing.get_context(SPAWN)
                initializer = _init_spawn_worker
                initargs = (
                    IndexSnapshot.from_engine(engine).to_bytes(),
                    max_cache_entries,
                    keep_records,
                )
        started = time.perf_counter()
        outcomes: List[ShardOutcome] = []
        try:
            with ProcessPoolExecutor(
                max_workers=len(shards),
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                futures = [
                    (
                        number,
                        pool.submit(
                            _run_shard,
                            shard,
                            time.time(),
                            observe_trace,
                            observe_metrics,
                            explain,
                        ),
                    )
                    for number, shard in enumerate(shards)
                ]
                for number, future in futures:
                    try:
                        outcomes.append(future.result())
                    except ParallelExecutionError:
                        raise
                    except Exception as exc:
                        raise ParallelExecutionError(
                            f"shard {number + 1}/{len(shards)} "
                            f"({len(shards[number])} queries, "
                            f"start method {method!r}) failed: {exc}"
                        ) from exc
        finally:
            if method == FORK:
                _FORK_ENGINE = None
        elapsed = time.perf_counter() - started

        # Fold the workers' observability payloads into the parent's
        # collectors: spans nest under the open parallel.run span
        # (tagged with the worker pid), metric snapshots merge with the
        # documented counter/gauge/histogram semantics.
        tracer = _trace.active()
        registry = _metrics.active()
        for outcome in outcomes:
            if tracer is not None and outcome.trace_records:
                tracer.absorb(outcome.trace_records)
            if registry is not None and outcome.metrics_snapshot:
                registry.merge_snapshot(outcome.metrics_snapshot)

        merge_started = time.perf_counter()
        with _trace.span("parallel.merge"):
            by_index: Dict[int, IFLSResult] = {}
            for outcome in outcomes:
                for index, result in zip(
                    outcome.indices, outcome.results
                ):
                    by_index[index] = result
            missing = [
                i for i in range(len(batch)) if i not in by_index
            ]
            if missing:  # pragma: no cover - defensive
                raise ParallelExecutionError(
                    f"workers returned no result for queries {missing}"
                )
            results = [by_index[i] for i in range(len(batch))]
            report = _merged_report(
                outcomes, len(batch), max_cache_entries
            )
            query_stats = merge_query_stats(r.stats for r in results)
            explain_reports = sorted(
                (
                    explained
                    for outcome in outcomes
                    for explained in outcome.explain_reports
                ),
                key=lambda explained: explained.index or 0,
            )
        _metrics.record(
            "parallel.merge.seconds",
            time.perf_counter() - merge_started,
        )
        run_span.set(workers=len(shards))
    _metrics.add("parallel.batches")
    _metrics.set_gauge("parallel.workers", len(shards))
    return ParallelBatchOutcome(
        results=results,
        report=report,
        query_stats=query_stats,
        workers=len(shards),
        start_method=method,
        elapsed_seconds=elapsed,
        explain_reports=explain_reports,
    )
