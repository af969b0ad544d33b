"""Operation-count report: why the efficient approach wins.

The paper's §6.2.3 attributes the speedup to (i) grouping clients by
partition (bounded queue traffic), (ii) the single-door distance reuse,
and (iii) Lemma 5.1 client pruning (fewer facility retrievals and
indoor distance computations).  This experiment measures exactly those
internal counters for both algorithms on identical workloads, so the
claim is verifiable independent of wall-clock noise.

:func:`measure_session_counters` extends the comparison across a whole
query *batch*: the same workload sequence answered cold (fresh distance
engine per query) and warm (one :class:`~repro.core.session.QuerySession`),
with identical answers asserted and the distance-computation savings
reported via :func:`~repro.bench.reporting.format_cache_effectiveness`.

:func:`measure_parallel_counters` does the same for the sharded
process-pool executor (:mod:`repro.core.parallel`): one batch answered
serially and with a worker pool, answers asserted identical and the
merged per-worker counters re-checked against the
:class:`~repro.index.distance.DistanceStats` invariants, so the
deterministic stat merging is verifiable independent of wall-clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.baseline import modified_minmax
from ..core.efficient import efficient_minmax
from ..core.problem import IFLSProblem
from ..index.distance import VIPDistanceEngine
from ..datasets.venues import VENUE_NAMES
from ..datasets.workloads import random_facility_sets, uniform_clients
from .experiments import (
    EngineCache,
    Scale,
    current_scale,
    default_fe,
    default_fn,
)


@dataclass
class CounterRow:
    """Internal operation counts of one algorithm run."""

    venue: str
    algorithm: str
    clients: int
    clients_pruned: int
    facilities_retrieved: int
    idist_calls: int
    d2d_lookups: int
    distance_computations: int
    cache_hits: int
    single_door_shortcuts: int
    queue_pops: int

    @property
    def cache_hit_rate(self) -> float:
        """Memo hits per distance request (0 when nothing was asked)."""
        calls = self.distance_computations + self.cache_hits
        return self.cache_hits / calls if calls else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Field mapping for table rendering."""
        out = dict(self.__dict__)
        out["cache_hit_rate"] = f"{self.cache_hit_rate:.0%}"
        return out


def measure_counters(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venues: Sequence[str] = VENUE_NAMES,
) -> List[CounterRow]:
    """Run both algorithms at default Table-2 parameters per venue."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    rows: List[CounterRow] = []
    for venue_name in venues:
        engine = cache.engine(venue_name)
        rng = random.Random(0xC0DE)
        facilities = random_facility_sets(
            engine.venue,
            default_fe(venue_name),
            default_fn(venue_name),
            rng,
        )
        count = scale.clients(10_000)
        clients = uniform_clients(engine.venue, count, rng)
        for name, solver, memoize in (
            ("efficient", efficient_minmax, True),
            ("baseline", modified_minmax, False),
        ):
            distances = VIPDistanceEngine(engine.tree, memoize=memoize)
            problem = IFLSProblem(distances, clients, facilities)
            result = solver(problem)
            stats = result.stats
            rows.append(
                CounterRow(
                    venue=venue_name,
                    algorithm=name,
                    clients=count,
                    clients_pruned=stats.clients_pruned,
                    facilities_retrieved=stats.facilities_retrieved,
                    idist_calls=stats.distance.idist_calls,
                    d2d_lookups=stats.distance.d2d_lookups,
                    distance_computations=(
                        stats.distance.distance_computations
                    ),
                    cache_hits=stats.distance.cache_hits,
                    single_door_shortcuts=(
                        stats.distance.single_door_shortcuts
                    ),
                    queue_pops=stats.queue_pops,
                )
            )
    return rows


@dataclass
class SessionCounterRow:
    """Cold-vs-warm batch comparison on one venue."""

    venue: str
    queries: int
    cold: Dict[str, int]
    warm: Dict[str, int]
    answers_identical: bool

    @property
    def computations_saved(self) -> int:
        """Distance computations the warm session avoided."""
        return (
            self.cold["distance_computations"]
            - self.warm["distance_computations"]
        )


def measure_session_counters(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venues: Sequence[str] = VENUE_NAMES,
    batch_size: int = 12,
    clients_per_query: int = 2_000,
) -> List[SessionCounterRow]:
    """Answer one batch per venue cold and warm with identical inputs.

    Cold gives every query its own fresh memoising engine (the
    per-query behaviour before sessions existed); warm runs the same
    sequence through one :class:`QuerySession`.  Answers must agree
    exactly — the warm path only changes what is *recomputed*.
    """
    from ..core.request import QueryRequest

    scale = scale or current_scale()
    cache = cache or EngineCache()
    rows: List[SessionCounterRow] = []
    count = scale.clients(clients_per_query)
    for venue_name in venues:
        engine = cache.engine(venue_name)
        batch = []
        for i in range(batch_size):
            rng = random.Random(_SESSION_SEED + i)
            facilities = random_facility_sets(
                engine.venue,
                default_fe(venue_name),
                default_fn(venue_name),
                rng,
            )
            clients = uniform_clients(engine.venue, count, rng)
            batch.append(QueryRequest(clients, facilities))
        cold_totals: Dict[str, int] = {}
        cold_answers = []
        for query in batch:
            distances = VIPDistanceEngine(engine.tree, memoize=True)
            problem = IFLSProblem(
                distances, list(query.clients), query.facilities
            )
            result = efficient_minmax(problem)
            cold_answers.append((result.answer, result.objective))
            for key, value in distances.stats.snapshot().items():
                cold_totals[key] = cold_totals.get(key, 0) + value
        session = engine.session()
        warm_results = session.run(batch)
        warm_answers = [(r.answer, r.objective) for r in warm_results]
        rows.append(
            SessionCounterRow(
                venue=venue_name,
                queries=batch_size,
                cold=cold_totals,
                warm=session.report().totals,
                answers_identical=cold_answers == warm_answers,
            )
        )
    return rows


_SESSION_SEED = 0x5E55


@dataclass
class ParallelCounterRow:
    """Serial-vs-sharded batch comparison on one venue."""

    venue: str
    queries: int
    workers: int
    serial: Dict[str, int]
    merged: Dict[str, int]
    answers_identical: bool
    invariant_violations: List[str]


def measure_parallel_counters(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venues: Sequence[str] = ("MC",),
    workers: int = 2,
    batch_size: int = 8,
    clients_per_query: int = 2_000,
) -> List[ParallelCounterRow]:
    """Answer one batch per venue serially and sharded over a pool.

    Answers must agree exactly (sharding only redistributes cache
    warmth); the merged per-worker totals must satisfy every
    :class:`DistanceStats` ledger invariant, which
    :func:`~repro.core.stats.distance_invariant_violations` re-checks
    here so stat-merging drift shows up in bench output, not just CI.
    """
    from ..core.parallel import run_batch_parallel
    from ..core.request import QueryRequest
    from ..core.stats import distance_invariant_violations

    scale = scale or current_scale()
    cache = cache or EngineCache()
    rows: List[ParallelCounterRow] = []
    count = scale.clients(clients_per_query)
    for venue_name in venues:
        engine = cache.engine(venue_name)
        batch = []
        for i in range(batch_size):
            rng = random.Random(_SESSION_SEED + 1_000 + i)
            facilities = random_facility_sets(
                engine.venue,
                default_fe(venue_name),
                default_fn(venue_name),
                rng,
            )
            clients = uniform_clients(engine.venue, count, rng)
            batch.append(QueryRequest(clients, facilities))
        serial = run_batch_parallel(engine, batch, 1)
        sharded = run_batch_parallel(engine, batch, workers)
        rows.append(
            ParallelCounterRow(
                venue=venue_name,
                queries=batch_size,
                workers=sharded.workers,
                serial=serial.report.totals,
                merged=sharded.report.totals,
                answers_identical=serial.answers == sharded.answers,
                invariant_violations=distance_invariant_violations(
                    sharded.report.totals
                ),
            )
        )
    return rows


def format_parallel_counters(rows: Sequence[ParallelCounterRow]) -> str:
    """Serial-vs-merged counter tables, one per venue."""
    from .reporting import format_cache_effectiveness

    blocks = []
    for row in rows:
        table = format_cache_effectiveness(
            [
                ("serial (1 worker)", row.serial),
                (f"sharded ({row.workers} workers)", row.merged),
            ],
            title=(
                f"{row.venue}: {row.queries}-query batch, serial vs "
                f"{row.workers}-worker pool (merged counters)"
            ),
        )
        agree = "yes" if row.answers_identical else "NO — BUG"
        invariants = (
            "ok"
            if not row.invariant_violations
            else "; ".join(row.invariant_violations)
        )
        blocks.append(
            f"{table}\n"
            f"answers identical: {agree}; "
            f"merged-counter invariants: {invariants}"
        )
    return "\n\n".join(blocks)


def format_session_counters(rows: Sequence[SessionCounterRow]) -> str:
    """Cache-effectiveness tables, one per venue, plus savings lines."""
    from .reporting import format_cache_effectiveness

    blocks = []
    for row in rows:
        table = format_cache_effectiveness(
            [("cold (per-query)", row.cold), ("warm (session)", row.warm)],
            title=(
                f"{row.venue}: {row.queries}-query batch, "
                f"cold vs warm session"
            ),
        )
        agree = "yes" if row.answers_identical else "NO — BUG"
        blocks.append(
            f"{table}\n"
            f"answers identical: {agree}; "
            f"computations saved: {row.computations_saved}"
        )
    return "\n\n".join(blocks)


def format_counters(rows: Sequence[CounterRow]) -> str:
    """Fixed-width table of the counter comparison."""
    columns = (
        ("venue", 6), ("algorithm", 10), ("clients", 8),
        ("clients_pruned", 15), ("facilities_retrieved", 21),
        ("idist_calls", 12), ("d2d_lookups", 12),
        ("cache_hits", 11), ("cache_hit_rate", 15),
        ("single_door_shortcuts", 22), ("queue_pops", 11),
    )
    header = "".join(f"{name:>{width}}" for name, width in columns)
    lines = ["Operation counts (defaults per venue, uniform clients)",
             header, "-" * len(header)]
    for row in rows:
        data = row.as_dict()
        lines.append(
            "".join(f"{data[name]:>{width}}" for name, width in columns)
        )
    return "\n".join(lines)
