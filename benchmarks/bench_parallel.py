"""Wall-clock scaling of the sharded parallel batch executor.

One warm batch against one venue, answered through
:func:`repro.core.parallel.run_batch_parallel` at pool sizes 1/2/4/8:

* answers must be identical at every worker count (sharding only
  redistributes cache warmth, never changes a distance);
* the merged per-worker counters must satisfy the ``DistanceStats``
  ledger invariants after summation;
* the timing series shows how close the executor gets to linear
  scaling on the host — bounded by core count, so a single-core CI
  runner shows ~1x plus sharding overhead while a 4-core laptop
  approaches 4x.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import random

import pytest

from repro.core.parallel import run_batch_parallel
from repro.core.request import QueryRequest
from repro.core.stats import distance_invariant_violations
from repro.datasets.workloads import (
    random_facility_sets,
    uniform_clients,
)

from conftest import engine_for

BATCH_QUERIES = 24
BATCH_CLIENTS = 150
VENUE = "MC"
WORKER_COUNTS = (1, 2, 4, 8)

_SERIAL_ANSWERS = {}


def _batch(engine, queries: int = BATCH_QUERIES, seed: int = 0):
    batch = []
    for i in range(queries):
        rng = random.Random(seed + i)
        facilities = random_facility_sets(engine.venue, 30, 60, rng)
        clients = uniform_clients(engine.venue, BATCH_CLIENTS, rng)
        batch.append(QueryRequest(clients, facilities))
    return batch


def _serial_answers(engine, batch):
    """Reference answers, computed once per session."""
    key = (VENUE, len(batch))
    if key not in _SERIAL_ANSWERS:
        _SERIAL_ANSWERS[key] = run_batch_parallel(engine, batch, 1).answers
    return _SERIAL_ANSWERS[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_scaling(benchmark, workers):
    """Benchmark one pool size; assert answers + merged invariants."""
    engine = engine_for(VENUE)
    batch = _batch(engine)
    reference = _serial_answers(engine, batch)

    def sharded():
        return run_batch_parallel(engine, batch, workers)

    outcome = benchmark.pedantic(sharded, rounds=2, iterations=1)
    assert outcome.answers == reference
    assert distance_invariant_violations(outcome.report.totals) == []
    assert outcome.query_stats.queue_pops <= outcome.query_stats.queue_pushes
    benchmark.extra_info["queries"] = len(batch)
    benchmark.extra_info["workers"] = outcome.workers
    benchmark.extra_info["start_method"] = outcome.start_method


def main() -> int:
    engine = engine_for(VENUE)
    batch = _batch(engine)
    print(
        f"{VENUE}: {len(batch)} queries x {BATCH_CLIENTS} clients, "
        f"sharded batch execution"
    )
    print(f"{'workers':>8} {'time(s)':>10} {'speedup':>8} "
          f"{'computed':>10} {'hits':>10}")
    reference = None
    serial_time = None
    for workers in WORKER_COUNTS:
        outcome = run_batch_parallel(engine, batch, workers)
        if reference is None:
            reference = outcome.answers
            serial_time = outcome.elapsed_seconds
        elif outcome.answers != reference:
            print(f"ANSWER MISMATCH at workers={workers}")
            return 1
        violations = distance_invariant_violations(outcome.report.totals)
        if violations:
            print(f"MERGED-COUNTER DRIFT at workers={workers}: "
                  + "; ".join(violations))
            return 1
        totals = outcome.report.totals
        hits = (
            totals["d2d_cache_hits"]
            + totals["imind_cache_hits"]
            + totals["imind_node_cache_hits"]
        )
        print(
            f"{workers:>8} {outcome.elapsed_seconds:>10.3f} "
            f"{serial_time / outcome.elapsed_seconds:>7.2f}x "
            f"{totals['distance_computations']:>10} {hits:>10}"
        )
    print("\nanswers identical at every worker count; "
          "merged counters pass all invariants")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
