"""Unit and property tests for the MinDist extension (Section 7)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import EfficientOptions, ResultStatus
from repro.core.bruteforce import brute_force_mindist
from repro.core.mindist import efficient_mindist
from repro import IFLSEngine, FacilitySets, Client
from repro.datasets import small_office
from tests.conftest import facility_split, make_clients
from tests.core.test_equivalence_property import _venue, scenarios


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
    @pytest.mark.parametrize("seed", range(6))
    def test_total_matches_bruteforce(self, office, seed):
        venue, engine, rooms = office
        clients = make_clients(venue, 30, seed=seed)
        fs = facility_split(rooms, existing=3, candidates=7, seed=seed)
        got = efficient_mindist(engine.problem(clients, fs))
        want = brute_force_mindist(engine.problem(clients, fs))
        assert got.status == want.status
        assert got.objective == pytest.approx(want.objective)

    def test_no_existing(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 20, seed=42)
        fs = facility_split(rooms, existing=0, candidates=5, seed=42)
        got = efficient_mindist(engine.problem(clients, fs))
        want = brute_force_mindist(engine.problem(clients, fs))
        assert got.objective == pytest.approx(want.objective)


class TestBehaviour:
    def test_no_improvement_when_clients_in_existing(self, office):
        venue, engine, rooms = office
        fs = FacilitySets(frozenset(rooms[:2]), frozenset(rooms[6:9]))
        clients = [
            Client(0, venue.partition(rooms[0]).center, rooms[0]),
            Client(1, venue.partition(rooms[1]).center, rooms[1]),
        ]
        result = efficient_mindist(engine.problem(clients, fs))
        assert result.status is ResultStatus.NO_IMPROVEMENT
        assert result.objective == pytest.approx(0.0)

    def test_client_inside_candidate(self, office):
        venue, engine, rooms = office
        fs = FacilitySets(frozenset(), frozenset({rooms[2]}))
        clients = [Client(0, venue.partition(rooms[2]).center, rooms[2])]
        result = efficient_mindist(engine.problem(clients, fs))
        assert result.answer == rooms[2]
        assert result.objective == pytest.approx(0.0)

    def test_candidate_tying_existing_total_is_no_improvement(self):
        """Candidate 2 matches, never beats, each client's existing
        distance; the existing total must win the tie exactly."""
        venue, engine = _venue(2, 8, 2)
        clients = make_clients(venue, 11, seed=831)
        fs = FacilitySets(frozenset({3, 4, 5, 11}), frozenset({2}))
        got = efficient_mindist(engine.problem(clients, fs))
        want = brute_force_mindist(engine.problem(clients, fs))
        assert want.status is ResultStatus.NO_IMPROVEMENT
        assert got.status is ResultStatus.NO_IMPROVEMENT
        assert got.objective == want.objective

    def test_settled_clients_counted_as_pruned(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 20, seed=13)
        fs = facility_split(rooms, existing=6, candidates=4, seed=13)
        result = efficient_mindist(engine.problem(clients, fs))
        assert result.stats.clients_pruned >= 0
        assert result.stats.algorithm == "efficient-mindist"


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_mindist_property_equivalence(scenario):
    engine, clients, facilities = scenario
    got = efficient_mindist(engine.problem(clients, facilities))
    want = brute_force_mindist(engine.problem(clients, facilities))
    assert got.status == want.status
    assert got.objective == pytest.approx(want.objective)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_mindist_ablations_agree(scenario):
    engine, clients, facilities = scenario
    want = brute_force_mindist(engine.problem(clients, facilities))
    for options in (
        EfficientOptions(prune_clients=False),
        EfficientOptions(group_by_partition=False),
    ):
        got = efficient_mindist(engine.problem(clients, facilities),
                                options)
        assert got.objective == pytest.approx(want.objective)
