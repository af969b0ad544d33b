"""QuerySession: equivalence vs the brute-force oracle + cache stats.

Distances depend only on venue geometry, so a session answer — cold or
warm, under any :class:`EfficientOptions` ablation — must match the
brute-force oracle and stay bit-identical between cold and warm runs.
"""

import pytest

from repro import (
    EfficientOptions,
    IFLSEngine,
    QueryRequest,
    QuerySession,
    TOP_DOWN,
)
from repro.datasets import small_office
from repro.errors import QueryError
from repro.obs import observe
from tests.conftest import facility_split, make_clients

OBJECTIVES = ("minmax", "mindist", "maxsum")

ABLATIONS = [
    pytest.param(EfficientOptions(prune_clients=False), id="no-prune"),
    pytest.param(
        EfficientOptions(group_by_partition=False), id="no-group"
    ),
    pytest.param(EfficientOptions(traversal=TOP_DOWN), id="top-down"),
    pytest.param(
        EfficientOptions(
            prune_clients=False,
            group_by_partition=False,
            traversal=TOP_DOWN,
        ),
        id="all-off",
    ),
]


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return venue, engine, rooms


def _workload(venue, rooms, seed, clients=30, existing=4, candidates=8):
    return (
        make_clients(venue, clients, seed=seed),
        facility_split(rooms, existing, candidates, seed=seed),
    )


class TestOracleEquivalence:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", range(4))
    def test_cold_and_warm_match_bruteforce(self, office, objective,
                                            seed):
        venue, engine, rooms = office
        clients, fs = _workload(venue, rooms, seed)
        want = engine.query(
            clients, fs, objective=objective,
            algorithm="bruteforce", cold=True,
        )
        session = engine.session()
        cold = session.query(clients, fs, objective=objective)
        for w in range(3):  # warm the caches with unrelated queries
            other_c, other_fs = _workload(
                venue, rooms, seed=100 + 10 * seed + w,
                clients=20, existing=3, candidates=5,
            )
            session.query(other_c, other_fs, objective=objective)
        warm = session.query(clients, fs, objective=objective)
        for got in (cold, warm):
            assert got.status == want.status
            assert got.objective == pytest.approx(want.objective)
        # Warm vs cold must be bit-identical, not just approximately so.
        assert warm.answer == cold.answer
        assert warm.objective == cold.objective

    @pytest.mark.parametrize("options", ABLATIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ablations_match_bruteforce(self, office, options, seed):
        venue, engine, rooms = office
        clients, fs = _workload(venue, rooms, seed)
        want = engine.query(
            clients, fs, algorithm="bruteforce", cold=True
        )
        session = engine.session()
        got = session.query(clients, fs, options=options)
        assert got.status == want.status
        assert got.objective == pytest.approx(want.objective)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_mixed_batch_matches_per_query_oracle(self, office,
                                                  objective):
        venue, engine, rooms = office
        batch = []
        for seed in range(5):
            clients, fs = _workload(venue, rooms, seed, clients=20)
            batch.append(QueryRequest(clients, fs, objective=objective))
        results = engine.session().run(batch)
        for query, result in zip(batch, results):
            want = engine.query(
                list(query.clients), query.facilities,
                objective=objective, algorithm="bruteforce", cold=True,
            )
            assert result.objective == pytest.approx(want.objective)
            assert result.status == want.status


class TestWarmCaches:
    def test_identical_repeat_pays_zero_computations(self, office):
        venue, engine, rooms = office
        clients, fs = _workload(venue, rooms, seed=7)
        session = engine.session()
        first = session.query(clients, fs)
        second = session.query(clients, fs)
        assert second.answer == first.answer
        assert second.objective == first.objective
        cold_rec, warm_rec = first.stats.distance, second.stats.distance
        assert warm_rec.distance_computations == 0
        assert warm_rec.cache_hits > 0
        warm_requests = warm_rec.distance_computations + warm_rec.cache_hits
        assert warm_rec.cache_hits / warm_requests == 1.0
        assert cold_rec.distance_computations > 0

    def test_records_sum_to_totals(self, office):
        venue, engine, rooms = office
        session = engine.session()
        results = []
        for seed in range(4):
            clients, fs = _workload(venue, rooms, seed, clients=15)
            results.append(
                session.query(clients, fs, objective=OBJECTIVES[seed % 3])
            )
        report = session.report()
        assert report.queries == 4
        summed = {}
        for result in results:
            for key, value in result.stats.distance.snapshot().items():
                summed[key] = summed.get(key, 0) + value
        assert summed == report.totals

    def test_invalidate_drops_memos(self, office):
        venue, engine, rooms = office
        session = engine.session()
        clients, fs = _workload(venue, rooms, seed=4)
        first = session.query(clients, fs)
        assert session.cache_entries > 0
        session.invalidate()
        assert session.cache_entries == 0
        # The next run repopulates from scratch, answers unchanged.
        again = session.query(clients, fs)
        assert session.cache_entries > 0
        assert again.objective == first.objective

    def test_bounded_budget_evicts_but_keeps_answers(self, office):
        venue, engine, rooms = office
        unbounded = engine.session()
        bounded = engine.session(max_cache_entries=100)
        for seed in range(4):
            clients, fs = _workload(venue, rooms, seed, clients=25)
            a = unbounded.query(clients, fs)
            b = bounded.query(clients, fs)
            assert (b.answer, b.objective) == (a.answer, a.objective)
            assert bounded.cache_entries <= 100
        assert bounded.report().totals["cache_evictions"] > 0

    def test_describe_mentions_cache_statistics(self, office):
        venue, engine, rooms = office
        session = engine.session(max_cache_entries=500)
        clients, fs = _workload(venue, rooms, seed=5)
        session.query(clients, fs, label="alpha")
        text = session.report().describe()
        assert "1 queries answered" in text
        assert "budget 500" in text
        assert "hits:" in text


class TestValidationAndFacade:
    def test_unknown_objective_rejected(self, office):
        venue, engine, rooms = office
        clients, fs = _workload(venue, rooms, seed=0)
        with pytest.raises(QueryError):
            engine.session().query(clients, fs, objective="furthest")
        with pytest.raises(QueryError):
            QueryRequest(clients, fs, objective="furthest")

    def test_engine_factory_wires_tree_and_budget(self, office):
        venue, engine, rooms = office
        session = engine.session(max_cache_entries=9)
        assert isinstance(session, QuerySession)
        assert session.tree is engine.tree
        assert session.distances.max_cache_entries == 9

    def test_run_assigns_default_labels(self, office):
        venue, engine, rooms = office
        session = engine.session()
        batch = []
        for seed in range(2):
            clients, fs = _workload(venue, rooms, seed, clients=10)
            batch.append(QueryRequest(clients, fs))
        with observe() as (tracer, _):
            session.run(batch)
        assert [
            span.attrs["label"]
            for span in tracer.sorted_records()
            if span.name == "session.query"
        ] == ["q1", "q2"]
