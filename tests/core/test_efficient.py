"""Unit tests for the efficient approach (Algorithms 2-3)."""

import pytest

from repro import (
    Client,
    EfficientOptions,
    FacilitySets,
    IFLSEngine,
    ResultStatus,
    TOP_DOWN,
)
from repro.core.bruteforce import brute_force_minmax
from repro.core.efficient import FacilityStream, efficient_minmax, make_groups
from repro.datasets import small_office
from repro.errors import QueryError
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
        got = efficient_minmax(engine.problem(clients, fs))
        want = brute_force_minmax(engine.problem(clients, fs))
        assert got.status == want.status
        assert got.objective == pytest.approx(want.objective)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_existing_facilities(self, office, seed):
        venue, engine, rooms = office
        clients = make_clients(venue, 25, seed=seed)
        fs = facility_split(rooms, existing=0, candidates=6, seed=seed)
        got = efficient_minmax(engine.problem(clients, fs))
        want = brute_force_minmax(engine.problem(clients, fs))
        assert got.objective == pytest.approx(want.objective)
        assert got.status is ResultStatus.OPTIMAL


class TestPruning:
    def test_clients_inside_existing_pruned_immediately(self, office):
        venue, engine, rooms = office
        fs = FacilitySets(frozenset(rooms[:2]), frozenset(rooms[5:8]))
        clients = [
            Client(0, venue.partition(rooms[0]).center, rooms[0]),
            Client(1, venue.partition(rooms[1]).center, rooms[1]),
        ]
        result = efficient_minmax(engine.problem(clients, fs))
        assert result.status is ResultStatus.NO_IMPROVEMENT
        assert result.stats.clients_pruned == 2

    def test_client_inside_candidate_answers_at_zero(self, office):
        venue, engine, rooms = office
        fs = FacilitySets(frozenset(), frozenset({rooms[3]}))
        clients = [Client(0, venue.partition(rooms[3]).center, rooms[3])]
        result = efficient_minmax(engine.problem(clients, fs))
        assert result.answer == rooms[3]
        assert result.objective == 0.0

    @pytest.mark.parametrize("count", [100, 400])
    def test_lazy_prune_cost_is_linear(self, office, count):
        """Pruning must stay amortised O(1) per removed client.

        ``remove_from_group`` marks clients in a per-group pruned set;
        compaction rebuilds a group's list only once the set covers
        half of it, so each compaction pass removes at least as many
        entries as it scans twice — total scan cost is bounded by
        ``2 * |C|``.  The old eager list rebuild was O(|C|) *per
        removal* (quadratic overall) and blows straight through this
        bound.
        """
        venue, engine, rooms = office
        clients = make_clients(venue, count, seed=5)
        fs = facility_split(rooms, existing=4, candidates=8, seed=5)
        result = efficient_minmax(engine.problem(clients, fs))
        stats = result.stats
        assert stats.group_compactions > 0
        assert stats.group_compaction_cost <= 2 * count

    def test_lazy_prune_cost_scales_linearly_with_clients(self, office):
        venue, engine, rooms = office
        fs = facility_split(rooms, existing=4, candidates=8, seed=5)
        costs = {}
        for count in (100, 400):
            clients = make_clients(venue, count, seed=5)
            result = efficient_minmax(engine.problem(clients, fs))
            costs[count] = result.stats.group_compaction_cost
        # 4x the clients: linear stays ~4x; quadratic would be ~16x.
        assert costs[400] <= 8 * max(costs[100], 1)

    def test_pruned_clients_never_exceed_total(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 50, seed=77)
        fs = facility_split(rooms, existing=6, candidates=6, seed=77)
        result = efficient_minmax(engine.problem(clients, fs))
        assert 0 <= result.stats.clients_pruned <= 50


class TestOptions:
    @pytest.mark.parametrize(
        "options",
        [
            EfficientOptions(prune_clients=False),
            EfficientOptions(group_by_partition=False),
            EfficientOptions(traversal=TOP_DOWN),
            EfficientOptions(
                prune_clients=False,
                group_by_partition=False,
                traversal=TOP_DOWN,
            ),
        ],
        ids=["no-prune", "no-group", "top-down", "all-off"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ablations_preserve_answers(self, office, options, seed):
        venue, engine, rooms = office
        clients = make_clients(venue, 35, seed=seed)
        fs = facility_split(rooms, existing=4, candidates=8, seed=seed)
        reference = efficient_minmax(engine.problem(clients, fs))
        variant = efficient_minmax(engine.problem(clients, fs), options)
        assert variant.objective == pytest.approx(reference.objective)
        assert variant.status == reference.status

    def test_no_pruning_costs_more_distance_computations(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 40, seed=8)
        fs = facility_split(rooms, existing=4, candidates=8, seed=8)
        lean = efficient_minmax(engine.problem(clients, fs))
        fat = efficient_minmax(
            engine.problem(clients, fs),
            EfficientOptions(prune_clients=False),
        )
        assert (
            fat.stats.facilities_retrieved
            >= lean.stats.facilities_retrieved
        )

    def test_ungrouped_queue_traffic_is_higher(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 40, seed=9)
        fs = facility_split(rooms, existing=4, candidates=8, seed=9)
        grouped = efficient_minmax(engine.problem(clients, fs))
        ungrouped = efficient_minmax(
            engine.problem(clients, fs),
            EfficientOptions(group_by_partition=False),
        )
        assert ungrouped.stats.queue_pushes > grouped.stats.queue_pushes

    def test_unknown_traversal_rejected(self):
        with pytest.raises(QueryError):
            EfficientOptions(traversal="sideways")


class TestStream:
    def test_stream_retrieves_every_facility_for_every_group(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 6, seed=10)
        fs = facility_split(rooms, existing=3, candidates=3, seed=10)
        problem = engine.problem(clients, fs)
        groups = make_groups(problem, group_by_partition=True)
        stream = FacilityStream(
            problem.engine, groups, problem.existing, problem.candidates
        )
        seen = {c.client_id: set() for c in clients}
        while True:
            step = stream.advance()
            if step is None:
                break
            _gd, retrieval = step
            if retrieval is None:
                continue
            facility, _is_existing, client_ids, dists = retrieval
            assert len(client_ids) == len(dists)
            for client_id in client_ids:
                seen[client_id].add(facility)
        expected = fs.all_facilities
        for client in clients:
            missing = {
                f for f in expected - seen[client.client_id]
                if f != client.partition_id
            }
            assert not missing

    def test_gd_is_nondecreasing(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 6, seed=11)
        fs = facility_split(rooms, existing=3, candidates=3, seed=11)
        problem = engine.problem(clients, fs)
        groups = make_groups(problem, group_by_partition=True)
        stream = FacilityStream(
            problem.engine, groups, problem.existing, problem.candidates
        )
        last = 0.0
        while True:
            step = stream.advance()
            if step is None:
                break
            gd, _records = step
            assert gd >= last - 1e-9
            last = gd

    def test_record_distance_at_least_gd(self, office):
        venue, engine, rooms = office
        clients = make_clients(venue, 6, seed=12)
        fs = facility_split(rooms, existing=3, candidates=3, seed=12)
        problem = engine.problem(clients, fs)
        groups = make_groups(problem, group_by_partition=True)
        stream = FacilityStream(
            problem.engine, groups, problem.existing, problem.candidates
        )
        while True:
            step = stream.advance()
            if step is None:
                break
            gd, retrieval = step
            if retrieval is None:
                continue
            _facility, _is_existing, _client_ids, dists = retrieval
            for dist in dists:
                assert dist >= gd - 1e-9
