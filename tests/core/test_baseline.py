"""Unit tests for the modified MinMax baseline (Algorithm 1)."""

import pytest

from repro import FacilitySets, IFLSEngine, ResultStatus
from repro.core.baseline import modified_minmax
from repro.core.bruteforce import brute_force_minmax
from repro.datasets import small_office
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return venue, engine, rooms


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_objective_matches_bruteforce(self, office, seed):
        venue, engine, rooms = office
        clients = make_clients(venue, 40, seed=seed)
        fs = facility_split(rooms, existing=4, candidates=8, seed=seed)
        got = modified_minmax(engine.problem(clients, fs))
        want = brute_force_minmax(engine.problem(clients, fs))
        assert got.status == want.status
        assert got.objective == pytest.approx(want.objective)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_existing_facilities(self, office, seed):
        venue, engine, rooms = office
        clients = make_clients(venue, 25, seed=seed)
        fs = facility_split(rooms, existing=0, candidates=6, seed=seed)
        got = modified_minmax(engine.problem(clients, fs))
        want = brute_force_minmax(engine.problem(clients, fs))
        assert got.objective == pytest.approx(want.objective)
        assert got.status is ResultStatus.OPTIMAL


class TestBehaviour:
    def test_stats_are_populated(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 30, seed=99)
        fs = facility_split(rooms, existing=4, candidates=8, seed=99)
        result = modified_minmax(engine.problem(clients, fs))
        stats = result.stats
        assert stats.algorithm == "baseline-minmax"
        assert stats.clients_total == 30
        assert stats.facilities_retrieved >= 30  # one NN per client
        assert stats.elapsed_seconds > 0

    def test_no_improvement_when_clients_sit_in_existing(self, office):
        venue, engine, rooms = office
        fs = FacilitySets(
            frozenset(rooms[:4]), frozenset(rooms[10:14])
        )
        from repro import Client

        clients = [
            Client(i, venue.partition(pid).center, pid)
            for i, pid in enumerate(rooms[:4])
        ]
        result = modified_minmax(engine.problem(clients, fs))
        assert result.status is ResultStatus.NO_IMPROVEMENT
        assert result.objective == 0.0

    def test_deterministic_answers(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 30, seed=5)
        fs = facility_split(rooms, existing=3, candidates=9, seed=5)
        first = modified_minmax(engine.problem(clients, fs))
        second = modified_minmax(engine.problem(clients, fs))
        assert first.answer == second.answer
        assert first.objective == second.objective
