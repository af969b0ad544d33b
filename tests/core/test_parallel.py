"""Sharded parallel batch executor: equivalence and stat merging.

Sharding a batch across a process pool must never change an answer —
distances depend only on venue geometry — and the merged per-worker
counters must satisfy the same ledger invariants as a single engine's.
``workers=1`` must be the serial :class:`QuerySession` path itself, so
its output (answers *and* counters) is identical byte for byte.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import (
    FacilitySets,
    IFLSEngine,
    ParallelExecutionError,
    QueryRequest,
    run_batch_parallel,
)
from repro.core import parallel as parallel_module
from repro.core.parallel import IndexSnapshot, shard_batch
from repro.core.stats import (
    QueryStats,
    distance_invariant_violations,
    merge_query_stats,
    merge_snapshots,
)
from repro.datasets import small_office
from repro.errors import QueryError
from tests.conftest import facility_split, make_clients

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return venue, engine, rooms


def _batch(venue, rooms, queries=6, clients=30, seed_base=0):
    batch = []
    for i in range(queries):
        batch.append(
            QueryRequest(
                make_clients(venue, clients, seed=seed_base + i),
                facility_split(rooms, 4, 8, seed=seed_base + i),
                objective=("minmax", "mindist", "maxsum")[i % 3],
            )
        )
    return batch


def _payload(results):
    """The deterministic part of a result list."""
    return [(r.answer, r.objective, r.status) for r in results]


class TestShardBatch:
    def test_round_robin_indices(self):
        batch = list(range(7))  # shard_batch only carries items through
        shards = shard_batch(batch, 3)
        assert [[i for i, _ in s] for s in shards] == [
            [0, 3, 6], [1, 4], [2, 5],
        ]
        assert all(batch[i] == item for s in shards for i, item in s)

    def test_more_workers_than_queries_drops_empty_shards(self):
        shards = shard_batch([10, 20], 5)
        assert [[i for i, _ in s] for s in shards] == [[0], [1]]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ParallelExecutionError):
            shard_batch([1], 0)


class TestSerialEquivalence:
    def test_workers_one_is_the_serial_session(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms)
        session = engine.session()
        serial_results = session.run(batch)
        outcome = run_batch_parallel(engine, batch, 1)
        assert _payload(outcome.results) == _payload(serial_results)
        # Identical counters too: same code path, fresh warm session.
        assert outcome.report.totals == session.report().totals
        assert outcome.start_method == "serial"
        assert outcome.workers == 1

    def test_session_run_workers_one_unchanged(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms)
        a, b = engine.session(), engine.session()
        assert _payload(a.run(batch)) == _payload(
            b.run(batch, workers=1)
        )
        assert a.report().totals == b.report().totals

    @pytest.mark.parametrize("workers", (2, 3))
    def test_sharded_answers_identical(self, office, workers):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=7)  # odd shard sizes
        serial = run_batch_parallel(engine, batch, 1)
        sharded = run_batch_parallel(engine, batch, workers)
        assert _payload(sharded.results) == _payload(serial.results)
        assert sharded.workers == workers

    def test_more_workers_than_queries(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=3)
        serial = run_batch_parallel(engine, batch, 1)
        sharded = run_batch_parallel(engine, batch, 10)
        assert _payload(sharded.results) == _payload(serial.results)
        assert sharded.workers == 3  # capped at the batch size

    def test_empty_batch(self, office):
        _, engine, _ = office
        outcome = run_batch_parallel(engine, [], 4)
        assert outcome.results == []
        assert outcome.report.queries == 0
        assert engine.session().run([], workers=4) == []

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_spawn_matches_fork(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=4)
        serial = run_batch_parallel(engine, batch, 1)
        spawned = run_batch_parallel(
            engine, batch, 2, start_method="spawn"
        )
        assert _payload(spawned.results) == _payload(serial.results)
        assert spawned.start_method == "spawn"

    def test_unknown_start_method(self, office):
        venue, engine, rooms = office
        with pytest.raises(ParallelExecutionError):
            run_batch_parallel(
                engine, _batch(venue, rooms, queries=2), 2,
                start_method="threads",
            )


class TestMergedStats:
    def test_merged_invariants_hold(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=7)
        outcome = run_batch_parallel(engine, batch, 3)
        totals = outcome.report.totals
        assert distance_invariant_violations(totals) == []
        stats = outcome.query_stats
        assert stats.queue_pops <= stats.queue_pushes
        assert stats.clients_pruned <= stats.clients_total
        assert stats.clients_total == sum(len(q.clients) for q in batch)

    def test_records_cover_batch_in_submission_order(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=7)
        outcome = run_batch_parallel(engine, batch, 3)
        report = outcome.report
        assert report.queries == len(batch)
        assert [r.stats.algorithm for r in outcome.results] == [
            f"efficient-{q.objective}" for q in batch
        ]
        summed = merge_snapshots(
            r.stats.distance.snapshot() for r in outcome.results
        )
        assert summed == report.totals

    def test_merged_answer_fields_match_results(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=5)
        outcome = run_batch_parallel(engine, batch, 2)
        serial = run_batch_parallel(engine, batch, 1)
        for merged, result in zip(outcome.results, serial.results):
            assert merged.answer == result.answer
            assert merged.objective == result.objective

    def test_session_integration_merges_counters(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=6)
        session = engine.session()
        # One serial query first, then a parallel batch on top.
        first = batch[0]
        results = [session.query(first.clients, first.facilities)]
        results += session.run(batch, workers=2)
        assert len(results) == len(batch) + 1
        report = session.report()
        assert report.queries == len(batch) + 1
        summed = merge_snapshots(
            r.stats.distance.snapshot() for r in results
        )
        assert summed == report.totals
        assert distance_invariant_violations(report.totals) == []

    def test_session_rejects_bad_worker_count(self, office):
        venue, engine, rooms = office
        with pytest.raises(QueryError):
            engine.session().run(_batch(venue, rooms, 2), workers=0)

    def test_cache_budget_applies_per_worker(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=6)
        outcome = run_batch_parallel(
            engine, batch, 2, max_cache_entries=200
        )
        assert outcome.report.max_cache_entries == 200
        # Pool footprint: at most budget entries per worker.
        assert outcome.report.cache_entries <= 200 * outcome.workers
        assert outcome.report.totals["cache_evictions"] > 0


class TestMergeHelpers:
    def test_merge_snapshots_sums_numbers_and_skips_labels(self):
        merged = merge_snapshots(
            [
                {"a": 1, "b": 2, "algorithm": "efficient"},
                {"a": 3, "c": 4.5, "algorithm": "baseline"},
            ]
        )
        assert merged == {"a": 4, "b": 2, "c": 4.5}

    def test_merge_query_stats_mixed_algorithms(self):
        a = QueryStats(algorithm="efficient", queue_pushes=5,
                       queue_pops=4)
        b = QueryStats(algorithm="baseline", queue_pushes=2,
                       queue_pops=2)
        merged = merge_query_stats([a, b])
        assert merged.algorithm == "mixed"
        assert merged.queue_pushes == 7
        assert merged.queue_pops == 6

    def test_invariant_checker_flags_drift(self):
        clean = {"imind_calls": 3, "imind_cache_hits": 1,
                 "distance_computations": 2}
        assert distance_invariant_violations(clean) == []
        broken = dict(clean, distance_computations=5)
        assert distance_invariant_violations(broken)
        assert distance_invariant_violations({"d2d_lookups": -1})


class TestSnapshot:
    def test_snapshot_roundtrip_answers_match(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=3)
        snapshot = IndexSnapshot.from_engine(engine)
        restored = IndexSnapshot.from_bytes(snapshot.to_bytes()).restore()
        want = run_batch_parallel(engine, batch, 1)
        got = run_batch_parallel(restored, batch, 1)
        assert _payload(got.results) == _payload(want.results)

    def test_from_bytes_rejects_foreign_payload(self):
        import pickle

        with pytest.raises(ParallelExecutionError):
            IndexSnapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))


def _exit_hard(shard):
    """Simulates a worker dying mid-shard (inherited under fork)."""
    os._exit(17)


class TestFailurePaths:
    def test_bad_inputs_surface_as_parallel_error(self, office):
        venue, engine, rooms = office
        bad = QueryRequest(
            make_clients(venue, 10, seed=0),
            FacilitySets(frozenset(), frozenset({99_999})),
        )
        batch = _batch(venue, rooms, queries=3) + [bad]
        with pytest.raises(ParallelExecutionError) as err:
            run_batch_parallel(engine, batch, 2)
        assert "shard" in str(err.value)
        assert isinstance(err.value.__cause__, QueryError)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_dead_worker_raises_instead_of_hanging(
        self, office, monkeypatch
    ):
        venue, engine, rooms = office
        monkeypatch.setattr(parallel_module, "_run_shard", _exit_hard)
        with pytest.raises(ParallelExecutionError) as err:
            run_batch_parallel(
                engine, _batch(venue, rooms, queries=4), 2,
                start_method="fork",
            )
        assert "failed" in str(err.value)
