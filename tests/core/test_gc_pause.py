"""Every measured solve runs with the cyclic garbage collector paused.

:func:`~repro.core.efficient.measured_query` disables automatic
collection for the timed solve, and re-enables it only if it disabled
it.  The first class checks the guard on every algorithm, on a raising
solve, under a caller that turned the collector off, and for solves
that overlap on two threads.  The pause is sound only because a solve
builds no reference cycles (reference counting frees all it
allocates), so the second class checks that no solve path leaves
anything for the collector to find.
"""

import gc
import random
import sys
import threading

import pytest

from repro import (
    Client,
    ContinuousQuery,
    FacilitySets,
    IFLSEngine,
    QueryRequest,
    Rect,
    VenueBuilder,
    synthetic_events,
)
from repro.core import baseline, efficient, queries
from repro.datasets import venue_by_name
from repro.datasets.workloads import random_facility_sets, uniform_clients
from repro.errors import UnreachableFacilityError
from tests.conftest import facility_split, make_clients

#: (algorithm, objective) for every solver ``measured_query`` wraps.
SOLVERS = [
    ("efficient", "minmax"),
    ("efficient", "mindist"),
    ("efficient", "maxsum"),
    ("baseline", "minmax"),
    ("bruteforce", "minmax"),
    ("bruteforce", "mindist"),
    ("bruteforce", "maxsum"),
]


@pytest.fixture(scope="module")
def office(office_venue):
    engine = IFLSEngine(office_venue)
    rooms = sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )
    fs = facility_split(rooms, existing=3, candidates=6, seed=11)
    return engine, make_clients(office_venue, 40, seed=3), fs


@pytest.fixture(scope="module")
def islands():
    """A client on one island, every existing facility on the other."""
    builder = VenueBuilder("islands")
    a1 = builder.add_room(Rect(0, 0, 5, 5))
    a2 = builder.add_room(Rect(5, 0, 10, 5))
    builder.connect(a1, a2)
    b1 = builder.add_room(Rect(20, 0, 25, 5))
    b2 = builder.add_room(Rect(25, 0, 30, 5))
    builder.connect(b1, b2)
    venue = builder.build(validate=False)  # two islands on purpose
    clients = [Client(0, venue.partition(a1).center, a1)]
    facilities = FacilitySets(frozenset({b1}), frozenset({b2}))
    return IFLSEngine(venue), clients, facilities


def probe_solver(monkeypatch, algorithm, objective, seen):
    """Record ``gc.isenabled()`` as the solver starts and as it ends,
    inside the ``solve`` callable ``measured_query`` runs."""

    def wrap(inner):
        def probe(*args, **kwargs):
            seen.append(gc.isenabled())
            result = inner(*args, **kwargs)
            seen.append(gc.isenabled())
            return result

        return probe

    if algorithm == "bruteforce":
        oracle = queries._ORACLES[objective]
        monkeypatch.setitem(queries._ORACLES, objective, wrap(oracle))
    elif algorithm == "baseline":
        monkeypatch.setattr(baseline, "_run", wrap(baseline._run))
    else:
        monkeypatch.setattr(efficient, "_solve", wrap(efficient._solve))


class TestGuard:
    @pytest.mark.parametrize("algorithm,objective", SOLVERS)
    def test_solve_runs_paused_and_returns_collector_on(
        self, office, monkeypatch, algorithm, objective
    ):
        engine, clients, fs = office
        seen = []
        probe_solver(monkeypatch, algorithm, objective, seen)
        assert gc.isenabled()
        engine.query(clients, fs, objective=objective,
                     algorithm=algorithm, cold=True)
        assert seen == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "algorithm", ["efficient", "baseline", "bruteforce"]
    )
    def test_collector_on_after_a_solve_raises(self, islands, algorithm):
        engine, clients, facilities = islands
        with pytest.raises(UnreachableFacilityError):
            engine.query(clients, facilities, algorithm=algorithm)
        assert gc.isenabled()

    def test_caller_turned_off_stays_off(self, office, monkeypatch):
        engine, clients, fs = office
        seen = []
        probe_solver(monkeypatch, "efficient", "minmax", seen)
        gc.disable()
        try:
            engine.query(clients, fs, cold=True)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False]

    def test_overlapping_solves_leave_collector_on(
        self, office, monkeypatch
    ):
        """Two solves on two threads, the first in also first out: the
        second found the collector off, so it must not restore "off"
        once the first has turned it back on."""
        engine, clients, fs = office
        first_in, second_in, first_out = (
            threading.Event() for _ in range(3)
        )
        inner = efficient._solve

        def ordered(state, problem, options, stats):
            if threading.current_thread().name == "first":
                first_in.set()
                assert second_in.wait(10.0)
                result = inner(state, problem, options, stats)
                first_out.set()
                return result
            assert first_in.wait(10.0)
            second_in.set()
            assert first_out.wait(10.0)
            return inner(state, problem, options, stats)

        monkeypatch.setattr(efficient, "_solve", ordered)
        answers = {}

        def run():
            name = threading.current_thread().name
            answers[name] = engine.query(clients, fs, cold=True).answer

        first = threading.Thread(target=run, name="first")
        second = threading.Thread(target=run, name="second")
        first.start()
        assert first_in.wait(10.0)
        second.start()
        first.join(30.0)
        second.join(30.0)
        assert not first.is_alive() and not second.is_alive()
        assert len(answers) == 2
        assert answers["first"] == answers["second"]
        assert gc.isenabled()

    def test_racing_solves_leave_collector_on(self, office):
        engine, clients, fs = office
        want = engine.query(clients, fs, cold=True).answer
        answers = []
        errors = []

        def run():
            try:
                for _ in range(8):
                    answers.append(
                        engine.query(clients, fs, cold=True).answer
                    )
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [want] * 32
        assert gc.isenabled()


@pytest.fixture(scope="module")
def cph():
    venue = venue_by_name("CPH")
    engine = IFLSEngine(venue)
    rng = random.Random(5)
    facilities = random_facility_sets(venue, 10, 20, rng)
    return engine, uniform_clients(venue, 300, rng), facilities


def assert_no_cyclic_garbage(run):
    """``run`` (after one warm run for lazy imports and one-time
    caches) leaves nothing that only the cyclic collector can free."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("algorithm,objective", SOLVERS)
    def test_cold_solve(self, cph, algorithm, objective):
        engine, clients, facilities = cph
        assert_no_cyclic_garbage(
            lambda: engine.query(clients, facilities, objective=objective,
                                 algorithm=algorithm, cold=True)
        )

    def test_session_explain_request_and_explain(self, cph):
        engine, clients, facilities = cph
        session = engine.session()

        def run():
            [result] = session.run(
                [QueryRequest(clients, facilities, explain=True)]
            )
            assert result.explain is not None
            engine.explain(clients, facilities, cold=True)

        assert_no_cyclic_garbage(run)

    def test_sharded_session_run(self, cph):
        engine, _clients, facilities = cph
        venue = engine.venue
        batch = [
            QueryRequest(
                uniform_clients(venue, 40, random.Random(seed)),
                facilities,
            )
            for seed in range(4)
        ]
        session = engine.session()
        assert_no_cyclic_garbage(lambda: session.run(batch, workers=2))

    def test_stream_through_every_tier(self, cph):
        engine, _clients, facilities = cph
        events = synthetic_events(engine.venue, initial=30, events=300,
                                  seed=2)
        tiers = []

        def run():
            stream = ContinuousQuery(engine, facilities)
            for event in events:
                stream.apply(event)
            tiers.append(stream.stats)

        assert_no_cyclic_garbage(run)
        stats = tiers[-1]
        assert stats.skips and stats.partial_solves
        assert stats.full_recomputes

    def test_raising_solve(self, islands):
        engine, clients, facilities = islands

        def run():
            try:
                engine.query(clients, facilities)
            except UnreachableFacilityError:
                return
            raise AssertionError("the islands query did not raise")

        assert_no_cyclic_garbage(run)
