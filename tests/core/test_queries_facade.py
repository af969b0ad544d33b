"""Unit tests for the IFLSEngine facade and result semantics."""

import pytest

from repro import (
    IFLSEngine,
    QueryError,
    ResultStatus,
)
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
    clients = make_clients(venue, 25, seed=50)
    fs = facility_split(rooms, existing=3, candidates=6, seed=50)
    return engine, clients, fs


class TestDispatch:
    @pytest.mark.parametrize("algorithm",
                             ["efficient", "baseline", "bruteforce"])
    def test_minmax_algorithms(self, office, algorithm):
        engine, clients, fs = office
        result = engine.query(clients, fs, algorithm=algorithm)
        assert result.objective >= 0

    @pytest.mark.parametrize("objective", ["minmax", "mindist", "maxsum"])
    @pytest.mark.parametrize("algorithm", ["efficient", "bruteforce"])
    def test_objectives(self, office, objective, algorithm):
        engine, clients, fs = office
        result = engine.query(
            clients, fs, objective=objective, algorithm=algorithm
        )
        assert result.stats.algorithm.endswith(objective) or (
            result.stats.algorithm.startswith("bruteforce")
        )

    def test_objectives_agree_across_algorithms(self, office):
        engine, clients, fs = office
        for objective in ("minmax", "mindist", "maxsum"):
            fast = engine.query(clients, fs, objective=objective)
            slow = engine.query(
                clients, fs, objective=objective, algorithm="bruteforce"
            )
            assert fast.objective == pytest.approx(slow.objective)

    def test_minmax_shorthand(self, office):
        engine, clients, fs = office
        result = engine.minmax(clients, fs.existing, fs.candidates)
        reference = engine.query(clients, fs)
        assert result.objective == pytest.approx(reference.objective)


class TestValidationErrors:
    def test_unknown_objective(self, office):
        engine, clients, fs = office
        with pytest.raises(QueryError):
            engine.query(clients, fs, objective="minavg")

    def test_unknown_algorithm(self, office):
        engine, clients, fs = office
        with pytest.raises(QueryError):
            engine.query(clients, fs, algorithm="magic")

    def test_baseline_rejects_extensions(self, office):
        engine, clients, fs = office
        with pytest.raises(QueryError):
            engine.query(
                clients, fs, objective="mindist", algorithm="baseline"
            )

    def test_client_in_unknown_partition(self, office):
        engine, clients, fs = office
        from repro import Client, Point

        bad = [Client(0, Point(0, 0, 0), 987654)]
        with pytest.raises(QueryError):
            engine.query(bad, fs)


class TestColdAndOptions:
    def test_cold_query_matches_warm(self, office):
        engine, clients, fs = office
        warm = engine.query(clients, fs)
        cold = engine.query(clients, fs, cold=True)
        assert cold.objective == pytest.approx(warm.objective)

    def test_cold_baseline_uses_unmemoized_engine(self, office):
        engine, clients, fs = office
        result = engine.query(clients, fs, algorithm="baseline",
                              cold=True)
        # The baseline takes the same code paths (including the
        # single-door shortcut) but its engine never serves a memo hit.
        assert result.stats.distance.imind_cache_hits == 0
        assert result.stats.distance.d2d_cache_hits == 0
        assert result.stats.distance.imind_node_cache_hits == 0

    def test_shared_tree_between_engines(self, office):
        engine, clients, fs = office
        second = IFLSEngine(engine.venue, tree=engine.tree)
        assert second.tree is engine.tree
        result = second.query(clients, fs)
        assert result.objective >= 0


class TestMeasurement:
    @pytest.mark.parametrize("objective", ["minmax", "mindist", "maxsum"])
    def test_bruteforce_query_is_measured(self, office, objective):
        """The oracle is timed and counted like every other solver:
        its stats carry the engine ledger's movement over the call."""
        engine, clients, fs = office
        before = engine.distances.stats.snapshot()
        result = engine.query(
            clients, fs, objective=objective, algorithm="bruteforce"
        )
        after = engine.distances.stats.snapshot()
        moved = {key: value - before[key] for key, value in after.items()}
        assert result.stats.distance.snapshot() == moved
        assert result.stats.distance.idist_calls > 0
        assert result.stats.elapsed_seconds > 0


class TestResultSemantics:
    def test_improved_flag(self, office):
        engine, clients, fs = office
        result = engine.query(clients, fs)
        assert result.improved == (
            result.status is ResultStatus.OPTIMAL
        )

    def test_repr_contains_answer(self, office):
        engine, clients, fs = office
        result = engine.query(clients, fs)
        assert "IFLSResult" in repr(result)

    def test_stats_snapshot_is_flat(self, office):
        engine, clients, fs = office
        result = engine.query(clients, fs)
        snap = result.stats.snapshot()
        assert snap["algorithm"] == "efficient-minmax"
        assert "idist_calls" in snap
        assert snap["clients_total"] == len(clients)

