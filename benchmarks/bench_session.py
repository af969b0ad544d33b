"""Cold vs warm batched execution through :class:`QuerySession`.

Measures what the session layer's cross-query distance caches buy on a
batch of independent IFLS queries against one venue:

* **cold** — every query gets its own fresh memoising distance engine
  (the per-query behaviour before sessions existed);
* **warm** — one :class:`QuerySession` answers the whole batch, keeping
  the partition-pair, door-pair, and per-(partition, node) ``iMinD``
  caches warm.

Answers must be bit-identical — distances depend only on the venue —
so the benchmark asserts equality and fewer warm distance
computations besides timing.  Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_session.py
"""

from __future__ import annotations

import random


from repro.bench.reporting import format_cache_effectiveness
from repro.core.efficient import efficient_minmax
from repro.core.problem import IFLSProblem
from repro.core.request import QueryRequest
from repro.datasets.workloads import (
    random_facility_sets,
    uniform_clients,
)
from repro.index.distance import VIPDistanceEngine

from conftest import engine_for

#: Acceptance batch: at least 50 queries (see ISSUE tracking).
BATCH_QUERIES = 50
BATCH_CLIENTS = 120
VENUE = "MC"


def _batch(engine, queries: int = BATCH_QUERIES, seed: int = 0):
    batch = []
    for i in range(queries):
        rng = random.Random(seed + i)
        facilities = random_facility_sets(engine.venue, 30, 60, rng)
        clients = uniform_clients(engine.venue, BATCH_CLIENTS, rng)
        batch.append(QueryRequest(clients, facilities))
    return batch


def run_cold(engine, batch):
    """Answer each query on a fresh memoising engine; return
    ``(answers, totals)`` where totals sum the per-query counters."""
    answers = []
    totals: dict = {}
    for query in batch:
        distances = VIPDistanceEngine(engine.tree, memoize=True)
        problem = IFLSProblem(
            distances, list(query.clients), query.facilities
        )
        result = efficient_minmax(problem)
        answers.append((result.answer, result.objective))
        for key, value in distances.stats.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return answers, totals


def run_warm(engine, batch, max_cache_entries=None):
    """Answer the whole batch through one warm session."""
    session = engine.session(max_cache_entries=max_cache_entries)
    results = session.run(batch)
    answers = [(r.answer, r.objective) for r in results]
    return answers, session.report()


def _compare(engine, batch):
    cold_answers, cold_totals = run_cold(engine, batch)
    warm_answers, report = run_warm(engine, batch)
    assert warm_answers == cold_answers, (
        "warm session changed query answers"
    )
    assert (
        report.totals["distance_computations"]
        < cold_totals["distance_computations"]
    ), "warm session did not save distance computations"
    return cold_totals, report


def test_session_batch_warm_beats_cold(benchmark):
    """Benchmark the warm batch; assert identical answers + savings."""
    engine = engine_for(VENUE)
    batch = _batch(engine)
    cold_totals, report = _compare(engine, batch)

    def warm():
        answers, rep = run_warm(engine, batch)
        return rep

    result = benchmark.pedantic(warm, rounds=3, iterations=1)
    benchmark.extra_info["queries"] = len(batch)
    benchmark.extra_info["cold_computed"] = (
        cold_totals["distance_computations"]
    )
    benchmark.extra_info["warm_computed"] = (
        result.totals["distance_computations"]
    )
    benchmark.extra_info["warm_hit_rate"] = f"{result.cache_hit_rate:.0%}"


def test_session_bounded_cache_still_correct(benchmark):
    """A tight eviction budget trades hits for memory, never answers."""
    engine = engine_for(VENUE)
    batch = _batch(engine, queries=10, seed=77)
    cold_answers, _ = run_cold(engine, batch)

    def bounded():
        return run_warm(engine, batch, max_cache_entries=2_000)

    answers, report = benchmark.pedantic(bounded, rounds=3, iterations=1)
    assert answers == cold_answers
    assert report.cache_entries <= 2_000
    assert report.totals["cache_evictions"] > 0
    benchmark.extra_info["evictions"] = report.totals["cache_evictions"]


def main() -> int:
    engine = engine_for(VENUE)
    batch = _batch(engine)
    cold_totals, report = _compare(engine, batch)
    print(
        format_cache_effectiveness(
            [
                ("cold (per-query)", cold_totals),
                ("warm (session)", report.totals),
            ],
            title=(
                f"{VENUE}: {len(batch)} queries x {BATCH_CLIENTS} "
                f"clients, cold vs warm"
            ),
        )
    )
    saved = (
        cold_totals["distance_computations"]
        - report.totals["distance_computations"]
    )
    print(
        f"\nanswers identical: yes; distance computations saved: "
        f"{saved} "
        f"({saved / cold_totals['distance_computations']:.0%} of cold)"
    )
    print(f"warm cache: {report.cache_entries} entries "
          f"(~{report.cache_bytes / 1024:.0f} KiB)")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
