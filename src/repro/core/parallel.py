"""Sharded process-pool execution of IFLS query batches.

``QuerySession.run(batch, workers=N)`` is the one batch executor.  With
``N > 1`` and more than one query it hands the checked batch to
:func:`_run_batch_sharded`: queries against one venue are independent,
and distances depend only on the immutable venue geometry, so the
batch fans out over up to ``N`` worker processes, each running its
*own* warm session over a shared venue + VIP-tree, and the results come
back in submission order.  The results are the only output: each
carries its own time and distance delta in ``result.stats`` and, for a
request with ``explain=True``, its
:class:`~repro.obs.explain.ExplainReport` as ``result.explain``,
pickled home with the result it describes.

Index sharing
-------------
Building a VIP-tree is the expensive part, so workers never rebuild it:

* under the ``fork`` start method (:func:`default_start_method` picks
  it wherever the platform offers it) the parent parks the prepared
  :class:`IFLSEngine` in a module global right before the pool forks;
  children inherit the whole index through copy-on-write for free;
* under ``spawn`` (platforms without ``fork``) the engine is condensed
  into an :class:`IndexSnapshot` — venue plus tree, pickled once in
  the parent with the highest protocol — and shipped to each worker's
  initializer, which restores an engine without re-running tree
  construction.

Determinism
-----------
Results come back tagged with their submission index and are reordered
before returning, so ``results[i]`` always answers ``batch[i]``
regardless of worker count or scheduling.  A request without a label
of its own is named after the session's running count, as the serial
branch names it.  Warm caches never change answers (a warm distance
equals a cold one), so every worker count yields bit-identical
``(answer, objective, status)`` triples; only the execution counters
differ, because cache warmth is distributed differently across
workers.  The session adds the results' distance deltas to its ledger
and re-checks the ledger identities on their sum.

Failure handling
----------------
A shard that raises — bad inputs, a crashed worker, a broken pool —
surfaces immediately as
:class:`~repro.errors.ParallelExecutionError` naming the shard, with
the original exception chained; nothing hangs waiting for a dead
process, because :class:`concurrent.futures.ProcessPoolExecutor`
converts worker death into ``BrokenProcessPool``.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParallelExecutionError
from ..index.snapshot import IndexSnapshot
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import SpanRecord, Tracer
from .queries import IFLSEngine
from .request import QueryRequest
from .result import IFLSResult
from .session import QuerySession

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

    ``results[k]`` answers submission index ``indices[k]``.  When the
    parent had observability enabled, ``trace_records`` holds the
    worker's finished spans (absorbed into the parent tracer on
    reassembly, tagged with the worker pid) and ``metrics_snapshot``
    the worker registry's image (folded into the parent registry with
    the documented merge semantics).
    """

    indices: List[int]
    results: List[IFLSResult]
    trace_records: List[SpanRecord] = field(default_factory=list)
    metrics_snapshot: Optional[Dict] = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
# One warm session per worker process, created by the pool initializer
# and reused for every shard the worker executes.
_WORKER_SESSION: Optional[QuerySession] = None
# Fork-shared engine: set in the parent immediately before the pool
# forks, inherited copy-on-write by the children, cleared afterwards.
_FORK_ENGINE: Optional[IFLSEngine] = None


def _init_fork_worker(max_cache_entries: Optional[int]) -> None:
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
        _FORK_ENGINE, max_cache_entries=max_cache_entries
    )


def _init_spawn_worker(
    payload: bytes, max_cache_entries: Optional[int]
) -> None:
    """Worker initializer under ``spawn``: restore the snapshot."""
    global _WORKER_SESSION
    engine = IndexSnapshot.from_bytes(payload).restore()
    _WORKER_SESSION = QuerySession(
        engine, max_cache_entries=max_cache_entries
    )


def _run_shard(
    shard: Sequence[Tuple[int, QueryRequest]],
    answered: int,
    submitted_at: Optional[float] = None,
    observe_trace: bool = False,
    observe_metrics: bool = False,
) -> ShardOutcome:
    """Answer one shard on this worker's warm session.

    ``shard`` carries ``(submission_index, request)`` pairs; a query
    without a label of its own is named ``q<answered + index + 1>``,
    where ``answered`` is the submitting session's count before the
    batch, as the serial branch would name it.  When the parent had
    collectors active it sets the ``observe_*`` flags: the shard then
    runs under a fresh per-shard tracer/registry whose records travel
    back in the :class:`ShardOutcome`.  ``submitted_at`` is the parent's
    ``time.time()`` at submission — queue wait is measured on the wall
    clock because monotonic clocks do not compare across processes
    (documented approximate).
    """
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - defensive
        raise ParallelExecutionError("worker session was not initialised")
    tracer = Tracer() if observe_trace else None
    registry = MetricsRegistry() if observe_metrics else None
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
        with _trace.span("parallel.shard", **shard_attrs):
            for index, request in shard:
                results.append(
                    session.answer(request, f"q{answered + index + 1}")
                )
                indices.append(index)
        _metrics.record(
            "parallel.shard.seconds",
            sum(result.stats.elapsed_seconds for result in results),
        )
    return ShardOutcome(
        indices=indices,
        results=results,
        trace_records=(
            tracer.sorted_records() if tracer is not None else []
        ),
        metrics_snapshot=(
            registry.snapshot() if registry is not None else None
        ),
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


def _run_batch_sharded(
    engine: IFLSEngine,
    batch: Sequence[QueryRequest],
    workers: int,
    max_cache_entries: Optional[int],
    answered: int,
) -> List[IFLSResult]:
    """Answer a checked ``batch`` on up to ``workers`` processes.

    Returns the results in submission order.  ``max_cache_entries`` is
    each worker session's memo budget, and ``answered`` the submitting
    session's query count, which numbers unlabelled requests.  Raises
    :class:`ParallelExecutionError` when a shard raises or a worker
    process dies.
    """
    global _FORK_ENGINE
    method = default_start_method()
    observe_trace = _trace.active() is not None
    observe_metrics = _metrics.active() is not None
    with _trace.span(
        "parallel.run", queries=len(batch), method=method
    ) as run_span:
        with _trace.span("parallel.prepare"):
            shards = shard_batch(batch, workers)
            if method == FORK:
                initializer = _init_fork_worker
                initargs: tuple = (max_cache_entries,)
                _FORK_ENGINE = engine
            else:
                initializer = _init_spawn_worker
                initargs = (
                    IndexSnapshot.from_engine(engine).to_bytes(),
                    max_cache_entries,
                )
        outcomes: List[ShardOutcome] = []
        try:
            with ProcessPoolExecutor(
                max_workers=len(shards),
                mp_context=multiprocessing.get_context(method),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                futures = [
                    pool.submit(
                        _run_shard,
                        shard,
                        answered,
                        time.time(),
                        observe_trace,
                        observe_metrics,
                    )
                    for shard in shards
                ]
                for number, future in enumerate(futures):
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
            _FORK_ENGINE = None

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
        _metrics.record(
            "parallel.merge.seconds",
            time.perf_counter() - merge_started,
        )
        run_span.set(workers=len(shards))
    _metrics.add("parallel.batches")
    _metrics.set_gauge("parallel.workers", len(shards))
    return results
