"""Unit tests for the moving-clients simulator (future-work extension)."""

import pytest

from repro import Client, IFLSEngine, Point, QueryError
from repro.core.bruteforce import brute_force_minmax
from repro.core.moving import MovingClientSimulator, WALKING_SPEED
from repro.datasets import small_office
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def setup():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    fs = facility_split(rooms, existing=3, candidates=6, seed=100)
    return venue, engine, rooms, fs


def walker_pair(venue, rooms, seed=0):
    clients = make_clients(venue, 2, seed=seed)
    destination = next(
        pid for pid in rooms
        if pid not in {c.partition_id for c in clients}
    )
    return clients, destination


class TestWalking:
    def test_walker_reaches_destination(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=1)
        sim.add_walker(clients[0], destination, speed=WALKING_SPEED)
        assert sim.en_route() == 1
        # Walk long enough to certainly arrive.
        for _ in range(200):
            sim.step(1.0)
            if sim.en_route() == 0:
                break
        assert sim.en_route() == 0
        final = sim.position_of(clients[0].client_id)
        assert final is not None
        assert final.partition_id == destination

    def test_positions_stay_inside_partitions(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=2)
        sim.add_walker(clients[0], destination)
        for _ in range(50):
            sim.step(0.5)
            current = sim.position_of(clients[0].client_id)
            partition = venue.partition(current.partition_id)
            # Doors sit on shared boundaries; allow edge tolerance.
            assert partition.rect.distance_to_point(
                current.location
            ) < 1e-6

    def test_travel_time_matches_distance(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=3)
        client = clients[0]
        distance = engine.distances.idist(client, destination)
        sim.add_walker(client, destination, speed=2.0)
        # One step shorter than the travel time: still en route.
        sim.step(max(distance / 2.0 - 0.5, 0.1))
        if distance > 1.0:
            assert sim.en_route() == 1
        sim.step(1.0)  # finishes the walk
        assert sim.en_route() == 0

    def test_invalid_speed_and_step(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=4)
        with pytest.raises(QueryError):
            sim.add_walker(clients[0], destination, speed=0)
        with pytest.raises(QueryError):
            sim.step(0)


class TestAnswersWhileMoving:
    def test_answer_matches_bruteforce_at_each_tick(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        movers = make_clients(venue, 4, seed=5)
        for client in movers[:2]:
            target = next(
                pid for pid in rooms if pid != client.partition_id
            )
            sim.add_walker(client, target)
        for client in movers[2:]:
            sim.add_stationary(client)
        for _ in range(3):
            sim.step(2.0)
            got = sim.answer()
            want = brute_force_minmax(
                engine.problem(sim.clients, fs)
            )
            assert got.objective == pytest.approx(want.objective)

    def test_remove_mid_walk(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=6)
        sim.add_walker(clients[0], destination)
        sim.add_stationary(clients[1])
        sim.step(1.0)
        sim.remove(clients[0].client_id)
        assert sim.client_count == 1
        assert sim.walker_count == 0
        result = sim.answer()
        want = brute_force_minmax(
            engine.problem([clients[1]], fs)
        )
        assert result.objective == pytest.approx(want.objective)

    def test_objective_variants(self, setup):
        venue, engine, rooms, fs = setup
        clients = make_clients(venue, 15, seed=8)
        for objective in ("minmax", "mindist", "maxsum"):
            sim = MovingClientSimulator(engine, fs, objective=objective)
            for client in clients:
                sim.add_stationary(client)
            result = sim.answer()
            oracle = engine.query(
                clients, fs, objective=objective, algorithm="bruteforce"
            )
            assert result.objective == pytest.approx(oracle.objective)

    def test_unknown_objective_rejected(self, setup):
        venue, engine, rooms, fs = setup
        with pytest.raises(QueryError):
            MovingClientSimulator(engine, fs, objective="minmode")

    def test_empty_crowd_rejected(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        with pytest.raises(QueryError):
            sim.answer()

    def test_clock_advances(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=7)
        sim.add_stationary(clients[0])
        sim.step(2.5)
        sim.step(1.5)
        assert sim.clock == pytest.approx(4.0)


class TestEdgeCases:
    def test_step_with_no_walkers(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        assert sim.step(1.0) == 0
        assert sim.clock == pytest.approx(1.0)

    def test_step_rejects_nonpositive_seconds(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        with pytest.raises(QueryError):
            sim.step(0.0)

    def test_walk_to_current_partition_is_noop(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        client = make_clients(venue, 1, seed=30)[0]
        sim.add_walker(client, client.partition_id)
        assert sim.en_route() == 0
        sim.step(5.0)
        final = sim.position_of(client.client_id)
        assert final.partition_id == client.partition_id

    def test_duplicate_remove_raises(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=31)
        sim.add_walker(clients[0], destination)
        sim.remove(clients[0].client_id)
        with pytest.raises(QueryError):
            sim.remove(clients[0].client_id)
        assert sim.client_count == 0

    def test_interleaved_add_remove_same_id(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=32)
        sim.add_walker(clients[0], destination)
        sim.remove(clients[0].client_id)
        sim.add_stationary(clients[0])
        assert sim.client_count == 1
        assert sim.walker_count == 0
        assert sim.position_of(clients[0].client_id) == clients[0]

    def test_unknown_partition_rejected_before_state_changes(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        for client in make_clients(venue, 5, seed=33):
            sim.add_stationary(client)
        stray = Client(999, Point(1, 1, 0), 99999)
        with pytest.raises(QueryError):
            sim.add_stationary(stray)
        with pytest.raises(QueryError):
            sim.add_walker(stray, rooms[0])
        assert sim.client_count == 5
        assert sim.position_of(999) is None
        assert sim.answer().objective >= 0

    def test_walker_readded_as_stationary_stops(self, setup):
        venue, engine, rooms, fs = setup
        sim = MovingClientSimulator(engine, fs)
        clients, destination = walker_pair(venue, rooms, seed=34)
        sim.add_walker(clients[0], destination)
        assert sim.en_route() == 1
        sim.add_stationary(clients[0])
        assert sim.step(5.0) == 0
        assert sim.en_route() == 0
        assert sim.walker_count == 0
        assert sim.position_of(clients[0].client_id) == clients[0]
