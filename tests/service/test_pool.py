"""SessionPool: ledger isolation, delta merge, pressure eviction."""

import threading

import pytest

from repro import IFLSEngine
from repro.api import Engine
from repro.core.stats import distance_invariant_violations
from repro.errors import ServiceError
from repro.service import SessionPool
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def snapshot(request):
    venue = request.getfixturevalue("office_venue")
    return Engine(IFLSEngine(venue)).snapshot()


@pytest.fixture(scope="module")
def workload(request):
    venue = request.getfixturevalue("office_venue")
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return [
        (
            make_clients(venue, 20, seed=70 + i),
            facility_split(rooms, 3, 6, seed=70 + i),
        )
        for i in range(6)
    ]


class TestCheckoutCheckin:
    def test_sessions_have_distinct_stats_objects(self, snapshot):
        pool = SessionPool(snapshot, size=2)
        first = pool.checkout()
        second = pool.checkout()
        try:
            assert first is not second
            assert (
                first.distances.stats is not second.distances.stats
            )
        finally:
            pool.checkin(first)
            pool.checkin(second)
            pool.close()

    def test_checkout_blocks_then_times_out(self, snapshot):
        pool = SessionPool(snapshot, size=1)
        session = pool.checkout()
        try:
            with pytest.raises(ServiceError):
                pool.checkout(timeout=0.05)
        finally:
            pool.checkin(session)
            pool.close()

    def test_checkin_returns_session_to_waiter(self, snapshot):
        pool = SessionPool(snapshot, size=1)
        session = pool.checkout()
        got = []

        def waiter():
            with pool.session(timeout=5.0) as borrowed:
                got.append(borrowed)

        thread = threading.Thread(target=waiter)
        thread.start()
        pool.checkin(session)
        thread.join(timeout=5.0)
        assert got == [session]
        pool.close()

    def test_foreign_checkin_rejected(self, snapshot):
        pool = SessionPool(snapshot, size=1)
        stranger = snapshot.session()
        with pytest.raises(ServiceError):
            pool.checkin(stranger)
        pool.close()


class TestLedger:
    def test_deltas_telescope_to_pool_ledger(self, snapshot, workload):
        """Sum of per-query result deltas == merged pool ledger, and
        the merged ledger keeps the single-engine invariants."""
        pool = SessionPool(snapshot, size=2)
        summed = {}
        for clients, facilities in workload:
            with pool.session() as session:
                result = session.query(clients, facilities)
                delta = result.stats.distance.snapshot()
                for key, value in delta.items():
                    summed[key] = summed.get(key, 0) + value
        ledger = pool.ledger()
        assert pool.ledger_violations() == []
        assert distance_invariant_violations(ledger) == []
        assert {k: v for k, v in ledger.items() if v} == {
            k: v for k, v in summed.items() if v
        }
        assert pool.stats().queries_answered == len(workload)
        pool.close()

    def test_double_checkin_cycle_never_double_counts(
        self, snapshot, workload
    ):
        pool = SessionPool(snapshot, size=1)
        clients, facilities = workload[0]
        with pool.session() as session:
            session.query(clients, facilities)
        first = pool.ledger()
        # An idle checkout/checkin with no work must not change totals.
        with pool.session():
            pass
        assert pool.ledger() == first
        pool.close()


class TestPressureEviction:
    def test_idle_caches_dropped_under_byte_budget(
        self, snapshot, workload
    ):
        pool = SessionPool(snapshot, size=1, cache_bytes_budget=1)
        clients, facilities = workload[1]
        with pool.session() as session:
            session.query(clients, facilities)
            held = session.distances.cache_bytes()
            entries = session.cache_entries
            assert held > 1
            assert entries > 0
        stats = pool.stats()
        assert stats.evictions >= 1
        # The memos are gone; only empty-table overhead remains.
        assert stats.cache_bytes < held
        assert session.cache_entries == 0
        assert pool.ledger_violations() == []
        pool.close()

    def test_no_budget_means_no_eviction(self, snapshot, workload):
        pool = SessionPool(snapshot, size=1)
        clients, facilities = workload[2]
        with pool.session() as session:
            session.query(clients, facilities)
        stats = pool.stats()
        assert stats.evictions == 0
        assert stats.cache_bytes > 0
        pool.close()


class TestClose:
    def test_close_retires_idle_and_refuses_checkout(
        self, snapshot, workload
    ):
        pool = SessionPool(snapshot, size=2)
        clients, facilities = workload[3]
        with pool.session() as session:
            session.query(clients, facilities)
        before = pool.ledger()
        pool.close()
        stats = pool.stats()
        assert stats.idle == 0
        assert stats.retired >= 1
        assert pool.ledger() == before  # merged before retiring
        with pytest.raises(ServiceError):
            pool.checkout(timeout=0.01)

    def test_inflight_session_retires_at_checkin(
        self, snapshot, workload
    ):
        pool = SessionPool(snapshot, size=1)
        clients, facilities = workload[4]
        session = pool.checkout()
        session.query(clients, facilities)
        pool.close()
        pool.checkin(session)  # drains into ledger, then retires
        assert pool.stats().checked_out == 0
        assert pool.stats().retired == 1
        assert pool.ledger_violations() == []
