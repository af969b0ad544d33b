"""Sharded batches: ``QuerySession.run(batch, workers=N)``.

Sharding a batch across a process pool must never change an answer —
distances depend only on venue geometry — nor the label an unlabelled
request gets, and the session ledger must grow by exactly the summed
per-result deltas, which satisfy the same ledger invariants as a
single engine's.  ``workers=1`` is the serial path itself, so its
output (answers *and* counters) is identical byte for byte.
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
    observe,
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


def _batch(venue, rooms, queries=6, clients=30, seed_base=0,
           explain=False):
    batch = []
    for i in range(queries):
        batch.append(
            QueryRequest(
                make_clients(venue, clients, seed=seed_base + i),
                facility_split(rooms, 4, 8, seed=seed_base + i),
                objective=("minmax", "mindist", "maxsum")[i % 3],
                explain=explain,
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


def _never_shard(*_args):
    raise AssertionError("workers=1 must not reach the sharding helper")


class TestSerialEquivalence:
    def test_workers_one_is_the_serial_session(self, office, monkeypatch):
        """``workers=1`` answers on the session's own warm engine: no
        pool, no ``parallel.run`` span, and the same answers, counters
        and memo as a plain serial run."""
        venue, engine, rooms = office
        batch = _batch(venue, rooms)
        serial = engine.session()
        serial_results = serial.run(batch)
        monkeypatch.setattr(
            parallel_module, "_run_batch_sharded", _never_shard
        )
        session = engine.session()
        with observe() as (tracer, _):
            results = session.run(batch, workers=1)
        assert _payload(results) == _payload(serial_results)
        assert session.report().totals == serial.report().totals
        assert session.report().cache_sizes == serial.report().cache_sizes
        assert session.report().queries == len(batch)
        assert not [r for r in tracer.records if r.name == "parallel.run"]

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
        serial = engine.session().run(batch)
        with observe() as (_, registry):
            sharded = engine.session().run(batch, workers=workers)
        assert _payload(sharded) == _payload(serial)
        assert registry.gauge("parallel.workers").value == workers

    def test_more_workers_than_queries(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=3)
        serial = engine.session().run(batch)
        with observe() as (_, registry):
            sharded = engine.session().run(batch, workers=10)
        assert _payload(sharded) == _payload(serial)
        # Capped at the batch size.
        assert registry.gauge("parallel.workers").value == 3

    def test_empty_batch(self, office):
        _, engine, _ = office
        session = engine.session()
        assert session.run([], workers=4) == []
        assert session.report().queries == 0

    def test_sharded_labels_continue_the_session_count(self, office):
        """An unlabelled request is named after the session's running
        count on both branches, and the sharded ledger grows by exactly
        the summed per-result deltas."""
        venue, engine, rooms = office
        warmup = _batch(venue, rooms, queries=2, seed_base=40)
        batch = _batch(venue, rooms, queries=4, explain=True)
        serial, sharded = engine.session(), engine.session()
        serial.run(warmup)
        sharded.run(warmup)
        before = sharded.report().totals
        want = serial.run(batch, workers=1)
        got = sharded.run(batch, workers=2)
        assert _payload(got) == _payload(want)
        labels = [result.explain.label for result in got]
        assert labels == [result.explain.label for result in want]
        assert labels == ["q3", "q4", "q5", "q6"]
        delta = merge_snapshots(r.stats.distance.snapshot() for r in got)
        assert sharded.report().totals == merge_snapshots([before, delta])
        assert sharded.report().queries == 6

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_spawn_matches_fork(self, office, monkeypatch):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=4)
        serial = engine.session().run(batch)
        monkeypatch.setattr(
            parallel_module, "default_start_method", lambda: "spawn"
        )
        with observe() as (tracer, _):
            spawned = engine.session().run(batch, workers=2)
        assert _payload(spawned) == _payload(serial)
        [run_span] = [
            r for r in tracer.records if r.name == "parallel.run"
        ]
        assert run_span.attrs["method"] == "spawn"


class TestMergedStats:
    def test_merged_invariants_hold(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=7)
        session = engine.session()
        results = session.run(batch, workers=3)
        totals = session.report().totals
        assert distance_invariant_violations(totals) == []
        stats = merge_query_stats(r.stats for r in results)
        assert stats.queue_pops <= stats.queue_pushes
        assert stats.clients_pruned <= stats.clients_total
        assert stats.clients_total == sum(len(q.clients) for q in batch)

    def test_records_cover_batch_in_submission_order(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=7)
        session = engine.session()
        results = session.run(batch, workers=3)
        report = session.report()
        assert report.queries == len(batch)
        assert [r.stats.algorithm for r in results] == [
            f"efficient-{q.objective}" for q in batch
        ]
        summed = merge_snapshots(
            r.stats.distance.snapshot() for r in results
        )
        assert summed == report.totals

    def test_merged_answer_fields_match_results(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=5)
        sharded = engine.session().run(batch, workers=2)
        serial = engine.session().run(batch)
        for merged, result in zip(sharded, serial):
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

    def test_broken_ledger_identity_raises(self, office, monkeypatch):
        """Summed deltas that break a ledger identity are refused, and
        the session's ledger and count stay as they were."""
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=2)
        results = engine.session().run(batch)
        results[0].stats.distance.distance_computations += 5
        monkeypatch.setattr(
            parallel_module,
            "_run_batch_sharded",
            lambda *_args: results,
        )
        session = engine.session()
        with pytest.raises(ParallelExecutionError, match="ledger"):
            session.run(batch, workers=2)
        assert session.report().queries == 0
        assert not any(session.report().totals.values())

    def test_cache_budget_applies_per_worker(self, office):
        venue, engine, rooms = office
        batch = _batch(venue, rooms, queries=6)
        session = engine.session(max_cache_entries=200)
        session.run(batch, workers=2)
        # Each worker session evicts under the forwarded budget.
        assert session.report().totals["cache_evictions"] > 0


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
        want = engine.session().run(batch)
        got = restored.session().run(batch)
        assert _payload(got) == _payload(want)

    def test_from_bytes_rejects_foreign_payload(self):
        import pickle

        with pytest.raises(ParallelExecutionError):
            IndexSnapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))


def _exit_hard(*_args):
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
            engine.session().run(batch, workers=2)
        assert "shard" in str(err.value)
        assert isinstance(err.value.__cause__, QueryError)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_dead_worker_raises_instead_of_hanging(
        self, office, monkeypatch
    ):
        venue, engine, rooms = office
        monkeypatch.setattr(parallel_module, "_run_shard", _exit_hard)
        with pytest.raises(ParallelExecutionError) as err:
            engine.session().run(_batch(venue, rooms, queries=4), workers=2)
        assert "failed" in str(err.value)
