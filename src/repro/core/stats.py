"""Per-query execution statistics and deterministic counter merging.

Both IFLS algorithms fill a :class:`QueryStats` so that the pruning and
grouping effects the paper argues about (Section 5, Section 6.2) are
directly observable: how many clients were pruned, how many facilities
were retrieved from the index, how many indoor distance computations
were needed, and how big the priority queue traffic was.

The module also owns the merging rules the parallel batch executor
(:mod:`repro.core.parallel`) relies on: every counter is a plain sum,
``elapsed_seconds`` adds up (total CPU work, not wall clock), and
``peak_memory_bytes`` takes the maximum (workers run concurrently, but
per-process peaks do not add).  Summing preserves every structural
invariant ``tools/check_counters.py`` enforces — sums of non-negative
counters stay non-negative, and linear identities such as
``hits + computations == calls`` and ``queue_pops <= queue_pushes``
survive addition term by term.  :func:`distance_invariant_violations`
re-checks the linear identities on any snapshot (pre- or post-merge) so
drift is caught at the merge point, not three layers later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

from ..index.distance import DistanceStats
from ..obs import metrics as _metrics


@dataclass
class QueryStats:
    """Counters collected while answering one IFLS query."""

    algorithm: str = ""
    clients_total: int = 0
    clients_pruned: int = 0
    facilities_retrieved: int = 0
    candidate_answers_considered: int = 0
    queue_pushes: int = 0
    queue_pops: int = 0
    iterations: int = 0
    group_compactions: int = 0
    group_compaction_cost: int = 0
    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0
    distance: DistanceStats = field(default_factory=DistanceStats)

    @property
    def clients_remaining(self) -> int:
        """Clients never pruned during the query."""
        return self.clients_total - self.clients_pruned

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one.

        Counters sum; ``elapsed_seconds`` sums (aggregate CPU work);
        ``peak_memory_bytes`` takes the maximum, since two queries that
        never ran in the same process do not share a heap.  The
        ``algorithm`` label is kept when it agrees and becomes
        ``"mixed"`` when the merged runs used different algorithms.
        """
        if self.algorithm != other.algorithm:
            self.algorithm = "mixed" if self.algorithm else other.algorithm
        self.clients_total += other.clients_total
        self.clients_pruned += other.clients_pruned
        self.facilities_retrieved += other.facilities_retrieved
        self.candidate_answers_considered += (
            other.candidate_answers_considered
        )
        self.queue_pushes += other.queue_pushes
        self.queue_pops += other.queue_pops
        self.iterations += other.iterations
        self.group_compactions += other.group_compactions
        self.group_compaction_cost += other.group_compaction_cost
        self.elapsed_seconds += other.elapsed_seconds
        self.peak_memory_bytes = max(
            self.peak_memory_bytes, other.peak_memory_bytes
        )
        self.distance.merge(other.distance)

    def add_engine_delta(
        self, before: Mapping[str, int], after: Mapping[str, int]
    ) -> None:
        """Add the distance-engine counter movement between two
        ``engine.stats.snapshot()`` readings to :attr:`distance`."""
        for key, value in after.items():
            delta = value - before.get(key, 0)
            setattr(
                self.distance,
                key,
                getattr(self.distance, key, 0) + delta,
            )

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary for reporting (bench harness rows)."""
        out: Dict[str, float] = {
            "algorithm": self.algorithm,
            "clients_total": self.clients_total,
            "clients_pruned": self.clients_pruned,
            "facilities_retrieved": self.facilities_retrieved,
            "candidate_answers_considered": (
                self.candidate_answers_considered
            ),
            "queue_pushes": self.queue_pushes,
            "queue_pops": self.queue_pops,
            "iterations": self.iterations,
            "group_compactions": self.group_compactions,
            "group_compaction_cost": self.group_compaction_cost,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
        }
        out.update(self.distance.snapshot())
        return out


def merge_query_stats(stats: Iterable[QueryStats]) -> QueryStats:
    """Fold many per-query counter sets into one aggregate.

    The aggregate satisfies the same invariants as its inputs (see the
    module docstring); merging is associative and order-insensitive, so
    the result does not depend on how a batch was sharded.
    """
    merged = QueryStats()
    for entry in stats:
        merged.merge(entry)
    return merged


def merge_snapshots(
    snapshots: Iterable[Mapping[str, object]],
) -> Dict[str, int]:
    """Sum counter snapshots key-wise (numeric values only).

    Used to combine per-worker :class:`DistanceStats` totals into one
    session-level view.  Non-numeric entries (e.g. the ``algorithm``
    label of a :class:`QueryStats` snapshot) are skipped; keys missing
    from some snapshots count as zero, so workers created at different
    library versions fail loudly in tests rather than silently here.
    """
    totals: Dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            totals[key] = totals.get(key, 0) + value
    return totals


def publish_query_metrics(result) -> None:
    """Report one answered query to the active metrics registry.

    Called by every solver wrapper after the query is decided; a no-op
    while metrics are disabled.  Feeds the ``query.*`` names of the
    instrumentation contract (``docs/OBSERVABILITY.md``): the outcome
    counters, the latency histogram, and the per-query client/pruning/
    distance-work distributions.
    """
    if _metrics.active() is None:
        return
    stats = result.stats
    _metrics.add("query.count")
    if result.answer is None:
        _metrics.add("query.no_improvement")
    else:
        _metrics.add("query.improved")
    _metrics.record("query.seconds", stats.elapsed_seconds)
    _metrics.record("query.clients", stats.clients_total)
    _metrics.record("query.pruned_clients", stats.clients_pruned)
    _metrics.record(
        "query.distance_computations",
        stats.distance.distance_computations,
    )


def distance_invariant_violations(
    totals: Mapping[str, int],
) -> List[str]:
    """Structural violations in a :class:`DistanceStats` snapshot.

    Returns one message per broken invariant (empty list = clean):
    non-negative counters, ``cache hits <= lookups/calls``, and the
    ledger identity ``hits + computations == calls``.  Merged totals
    must pass exactly like single-engine totals; the parallel executor
    checks this after every merge.
    """
    out: List[str] = []
    for key, value in totals.items():
        if isinstance(value, (int, float)) and value < 0:
            out.append(f"counter {key} is negative ({value})")
    d2d_hits = totals.get("d2d_cache_hits", 0)
    d2d_lookups = totals.get("d2d_lookups", 0)
    if d2d_hits > d2d_lookups:
        out.append(
            f"d2d_cache_hits {d2d_hits} > d2d_lookups {d2d_lookups}"
        )
    calls = totals.get("imind_calls", 0) + totals.get(
        "imind_node_calls", 0
    )
    resolved = (
        totals.get("imind_cache_hits", 0)
        + totals.get("imind_node_cache_hits", 0)
        + totals.get("distance_computations", 0)
    )
    if calls != resolved:
        out.append(
            f"hits + computations != calls ({resolved} != {calls})"
        )
    shortcuts = totals.get("single_door_shortcuts", 0)
    idist_calls = totals.get("idist_calls", 0)
    if shortcuts > idist_calls:
        out.append(
            f"single_door_shortcuts {shortcuts} > "
            f"idist_calls {idist_calls}"
        )
    return out
