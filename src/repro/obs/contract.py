"""The instrumentation contract: every span and metric the library emits.

This module is the machine-readable half of ``docs/OBSERVABILITY.md``:
the tables there are generated from — and CI-checked against — these
dictionaries (``tools/check_docs.py --contract``), so documented names
cannot drift from emitted names.

Stability guarantee: names listed here are **stable** — they only
change with a major version bump and a CHANGELOG entry.  New spans and
metrics may be *added* in minor versions.  Anything a library emits
must appear here; the observability integration tests enforce the
subset relation on real traced runs.

Units: ``seconds`` are wall time from a monotonic clock; counter-style
units (``queries``, ``entries``, ...) are exact event counts, never
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["SpanSpec", "MetricSpec", "SPANS", "METRICS"]


@dataclass(frozen=True)
class SpanSpec:
    """Documentation record for one span name."""

    name: str
    fires: str


@dataclass(frozen=True)
class MetricSpec:
    """Documentation record for one metric name."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    fires: str


def _spans(*specs: SpanSpec) -> Dict[str, SpanSpec]:
    return {spec.name: spec for spec in specs}


def _metrics(*specs: MetricSpec) -> Dict[str, MetricSpec]:
    return {spec.name: spec for spec in specs}


SPANS: Dict[str, SpanSpec] = _spans(
    SpanSpec(
        "index.build",
        "once per VIP-tree construction (whole build)",
    ),
    SpanSpec(
        "index.build.nodes",
        "child of index.build: node-hierarchy construction",
    ),
    SpanSpec(
        "index.build.matrices",
        "child of index.build: access-door row and leaf-matrix fill",
    ),
    SpanSpec(
        "index.kernels.pack",
        "once per lazy dense-array kernel pack build (first "
        "kernel-enabled engine on a tree, or after invalidation)",
    ),
    SpanSpec(
        "query.efficient.minmax",
        "once per efficient MinMax query (Algorithms 2-3)",
    ),
    SpanSpec(
        "query.efficient.mindist",
        "once per efficient MinDist query (Section 7)",
    ),
    SpanSpec(
        "query.efficient.maxsum",
        "once per efficient MaxSum query (Section 7)",
    ),
    SpanSpec(
        "query.baseline.minmax",
        "once per modified-MinMax baseline query (Algorithm 1)",
    ),
    SpanSpec(
        "query.bruteforce.minmax",
        "once per brute-force MinMax oracle query",
    ),
    SpanSpec(
        "query.bruteforce.mindist",
        "once per brute-force MinDist oracle query",
    ),
    SpanSpec(
        "query.bruteforce.maxsum",
        "once per brute-force MaxSum oracle query",
    ),
    SpanSpec(
        "ea.prephase",
        "child of query.efficient.*: Algorithm 2 pre-phase (clients "
        "located inside facility partitions)",
    ),
    SpanSpec(
        "ea.stream",
        "child of query.efficient.*: Algorithm 3 traversal loop "
        "(index descent, facility retrieval, pruning, refinement)",
    ),
    SpanSpec(
        "baseline.nearest_existing",
        "child of query.baseline.minmax: nearest-existing NN pass and "
        "the sorted list Ls",
    ),
    SpanSpec(
        "baseline.refine",
        "child of query.baseline.minmax: CA construction and the "
        "client-by-client refinement (rules 3a/3b)",
    ),
    SpanSpec(
        "baseline.finalize",
        "child of query.baseline.minmax: Find_Ans and the exact "
        "post-hoc objective",
    ),
    SpanSpec(
        "session.query",
        "once per QuerySession.query (wraps the solver span)",
    ),
    SpanSpec(
        "parallel.run",
        "once per sharded QuerySession.run call (workers > 1, more "
        "than one query)",
    ),
    SpanSpec(
        "parallel.prepare",
        "child of parallel.run: sharding plus index snapshot/fork "
        "setup, before the pool starts",
    ),
    SpanSpec(
        "parallel.shard",
        "in each worker, once per executed shard (its records are "
        "absorbed into the parent trace tagged with the worker pid "
        "and the shard's request ids)",
    ),
    SpanSpec(
        "parallel.merge",
        "child of parallel.run: reassembly of the results in "
        "submission order after all shards returned",
    ),
    SpanSpec(
        "explain.query",
        "once per EXPLAIN-profiled query (engine.explain, an "
        "explain-mode session query, or ifls explain); wraps the "
        "solver span and anchors the report's counter attribution",
    ),
    SpanSpec(
        "perfgate.suite",
        "once per perf-gate suite execution (baseline recording or "
        "comparison run)",
    ),
    SpanSpec(
        "report.generate",
        "once per EXPERIMENTS.md composition (ifls report, regenerate "
        "or --check; wraps every section generator)",
    ),
    SpanSpec(
        "stream.event",
        "once per ClientEvent applied to a ContinuousQuery "
        "(incremental or oracle mode; wraps any solver span the "
        "event triggers)",
    ),
    SpanSpec(
        "service.request",
        "once per HTTP request the query service answers (any "
        "endpoint, error responses included; tagged with the minted "
        "request_id)",
    ),
    SpanSpec(
        "service.batch.flush",
        "once per coalesced batch flushed onto the resident session "
        "(wraps the executor call answering the batch; tagged with "
        "the batch members' request ids)",
    ),
)


METRICS: Dict[str, MetricSpec] = _metrics(
    MetricSpec(
        "query.count", "counter", "queries",
        "every answered query (efficient, baseline or brute force, "
        "any objective)",
    ),
    MetricSpec(
        "query.improved", "counter", "queries",
        "answered queries whose result places a new facility",
    ),
    MetricSpec(
        "query.no_improvement", "counter", "queries",
        "answered queries normalised to NO_IMPROVEMENT",
    ),
    MetricSpec(
        "query.seconds", "histogram", "seconds",
        "per-query wall time (solver only, excluding index build)",
    ),
    MetricSpec(
        "query.clients", "histogram", "clients",
        "per-query |C|",
    ),
    MetricSpec(
        "query.pruned_clients", "histogram", "clients",
        "per-query clients pruned/settled (Lemma 5.1)",
    ),
    MetricSpec(
        "query.distance_computations", "histogram", "computations",
        "per-query matrix-resolved distance computations",
    ),
    MetricSpec(
        "index.build.seconds", "histogram", "seconds",
        "per VIP-tree construction wall time",
    ),
    MetricSpec(
        "index.kernels.pack.seconds", "histogram", "seconds",
        "per kernel-pack build wall time (lazy, once per tree until "
        "invalidated)",
    ),
    MetricSpec(
        "cache.entries", "gauge", "entries",
        "distance-memo entries after the most recent session query",
    ),
    MetricSpec(
        "cache.evictions", "counter", "evictions",
        "memo entries evicted under a max_cache_entries budget",
    ),
    MetricSpec(
        "parallel.batches", "counter", "batches",
        "every sharded QuerySession.run call (workers > 1, more than "
        "one query)",
    ),
    MetricSpec(
        "parallel.shards", "counter", "shards",
        "every shard executed by a pool worker",
    ),
    MetricSpec(
        "parallel.workers", "gauge", "processes",
        "pool size of the most recent parallel batch",
    ),
    MetricSpec(
        "parallel.shard.seconds", "histogram", "seconds",
        "per-shard solver time inside the worker (the sum of the "
        "shard's per-query elapsed_seconds)",
    ),
    MetricSpec(
        "parallel.shard.queue_wait_seconds", "histogram", "seconds",
        "per-shard wait between submission and worker pickup "
        "(wall-clock based; approximate across processes)",
    ),
    MetricSpec(
        "parallel.merge.seconds", "histogram", "seconds",
        "per-batch result reassembly time",
    ),
    MetricSpec(
        "explain.reports", "counter", "reports",
        "every ExplainReport built by the EXPLAIN profiler",
    ),
    MetricSpec(
        "perfgate.comparisons", "counter", "comparisons",
        "every baseline-vs-current perf-gate comparison",
    ),
    MetricSpec(
        "perfgate.drifted_metrics", "counter", "metrics",
        "metrics flagged outside tolerance by a perf-gate comparison",
    ),
    MetricSpec(
        "report.sections", "counter", "sections",
        "every Markdown section rendered into a composed report",
    ),
    MetricSpec(
        "stream.events", "counter", "events",
        "every ClientEvent applied to a ContinuousQuery",
    ),
    MetricSpec(
        "stream.groups.reevaluated", "counter", "groups",
        "partition groups handed to the solver while answering an "
        "event (partial and full recomputes)",
    ),
    MetricSpec(
        "stream.groups.skipped", "counter", "groups",
        "partition groups excluded from an event's answer (settled "
        "by Lemma 5.1, or all of them on a skipped event)",
    ),
    MetricSpec(
        "stream.full_recomputes", "counter", "events",
        "events answered by a from-scratch recompute (oracle mode, "
        "first answers, and failed incremental reductions)",
    ),
    MetricSpec(
        "service.requests", "counter", "requests",
        "every HTTP request the query service answered (any "
        "endpoint, error responses included)",
    ),
    MetricSpec(
        "service.errors", "counter", "requests",
        "requests answered with a non-2xx status (timeouts "
        "included)",
    ),
    MetricSpec(
        "service.timeouts", "counter", "requests",
        "requests answered with HTTP 504 after exceeding their "
        "timeout",
    ),
    MetricSpec(
        "service.request.seconds", "histogram", "seconds",
        "per-request wall time from parsed head to rendered "
        "response",
    ),
    MetricSpec(
        "service.batch.size", "histogram", "queries",
        "queries per coalesced batch flush",
    ),
    MetricSpec(
        "service.batch.flush.seconds", "histogram", "seconds",
        "per-flush wall time answering one coalesced batch",
    ),
    MetricSpec(
        "flight.records", "counter", "spans",
        "every completed span captured by the installed flight "
        "recorder",
    ),
    MetricSpec(
        "flight.dropped", "counter", "spans",
        "ring-buffer slots overwritten before export "
        "(flight-recorder wraparound)",
    ),
    MetricSpec(
        "service.slow_queries", "counter", "requests",
        "flight-recorded spans slower than the recorder's slow-query "
        "threshold",
    ),
    MetricSpec(
        "log.lines", "counter", "lines",
        "every structured JSON log line emitted",
    ),
)
