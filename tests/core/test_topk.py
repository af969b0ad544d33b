"""Unit and property tests for the k-IFLS extension."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IFLSEngine, QueryError
from repro.bench.experiments import default_fe, default_fn
from repro.core.queries import OBJECTIVES
from repro.core.topk import top_k_ifls
from repro.datasets import small_office, venue_by_name
from repro.datasets.workloads import workload
from tests.conftest import facility_split, make_clients
from tests.core.test_equivalence_property import scenarios


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    clients = make_clients(venue, 30, seed=80)
    fs = facility_split(rooms, existing=3, candidates=10, seed=80)
    return engine, clients, fs


def brute_ranking(engine, clients, fs, objective):
    """Reference ranking: evaluate every candidate exhaustively."""
    de = [
        min(
            (engine.distances.idist(c, e) for e in fs.existing),
            default=float("inf"),
        )
        for c in clients
    ]
    values = {}
    for candidate in fs.candidates:
        terms = [
            min(d, engine.distances.idist(c, candidate))
            for c, d in zip(clients, de)
        ]
        if objective == "minmax":
            values[candidate] = max(terms)
        elif objective == "mindist":
            values[candidate] = sum(terms)
        else:
            values[candidate] = float(
                sum(
                    1
                    for c, d in zip(clients, de)
                    if engine.distances.idist(c, candidate) < d
                )
            )
    reverse = objective == "maxsum"
    return sorted(
        values.items(),
        key=lambda item: (-item[1] if reverse else item[1], item[0]),
    )


class TestRanking:
    @pytest.mark.parametrize("objective", ["minmax", "mindist", "maxsum"])
    @pytest.mark.parametrize("k", [1, 3, 10, 100])
    def test_matches_exhaustive_ranking(self, office, objective, k):
        engine, clients, fs = office
        problem = engine.problem(clients, fs)
        ranked, _stats = top_k_ifls(problem, k, objective=objective)
        want = brute_ranking(engine, clients, fs, objective)
        assert len(ranked) == min(k, len(fs.candidates))
        for entry, (_pid, value) in zip(ranked, want):
            assert entry.objective == pytest.approx(value)

    def test_top1_matches_single_answer(self, office):
        engine, clients, fs = office
        problem = engine.problem(clients, fs)
        ranked, _ = top_k_ifls(problem, 1)
        single = engine.query(clients, fs, algorithm="bruteforce")
        if single.answer is None:
            # No strict improvement: the best candidate still exists in
            # the ranking and matches the no-improvement objective.
            assert ranked[0].objective >= single.objective - 1e-9
        else:
            assert ranked[0].objective == pytest.approx(single.objective)

    def test_ranks_are_sequential(self, office):
        engine, clients, fs = office
        ranked, _ = top_k_ifls(engine.problem(clients, fs), 5)
        assert [r.rank for r in ranked] == [1, 2, 3, 4, 5]
        values = [r.objective for r in ranked]
        assert values == sorted(values)

    def test_invalid_k(self, office):
        engine, clients, fs = office
        with pytest.raises(QueryError):
            top_k_ifls(engine.problem(clients, fs), 0)

    def test_invalid_objective(self, office):
        engine, clients, fs = office
        with pytest.raises(QueryError):
            top_k_ifls(engine.problem(clients, fs), 2, objective="mean")

    def test_abort_statistics(self, office):
        engine, clients, fs = office
        _ranked, stats = top_k_ifls(engine.problem(clients, fs), 1)
        assert stats.candidates_evaluated == len(fs.candidates)
        # Branch-and-bound must save work once tau is tight.
        full_work = len(fs.candidates) * len(clients)
        assert stats.client_terms_computed <= full_work


@pytest.fixture(scope="module")
def tie_rankings():
    """Per-candidate brute force on Table 2's defaults, cached per
    (venue, seed): every objective ranked by ``(objective, id)``
    (MaxSum by ``(-wins, id)``), from one ``iDist`` pass."""
    engines, cache = {}, {}

    def rankings(venue_name, seed):
        if (venue_name, seed) not in cache:
            if venue_name not in engines:
                engines[venue_name] = IFLSEngine(venue_by_name(venue_name))
            engine = engines[venue_name]
            clients, fs = workload(
                engine.venue, 200, default_fe(venue_name),
                default_fn(venue_name), seed=seed,
            )
            idist = engine.distances.idist
            de = [
                min((idist(c, e) for e in fs.existing),
                    default=float("inf"))
                for c in clients
            ]
            keys = {objective: [] for objective in OBJECTIVES}
            for candidate in fs.candidates:
                d = [idist(c, candidate) for c in clients]
                terms = [min(a, b) for a, b in zip(de, d)]
                wins = sum(1 for a, b in zip(de, d) if b < a)
                keys["minmax"].append((max(terms), candidate))
                keys["mindist"].append((sum(terms), candidate))
                keys["maxsum"].append((-float(wins), candidate))
            cache[venue_name, seed] = engine, clients, fs, {
                objective: [c for _, c in sorted(pairs)]
                for objective, pairs in keys.items()
            }
        return cache[venue_name, seed]

    return rankings


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("venue_name", ["CPH", "MC"])
def test_ties_rank_by_partition_id(
    tie_rankings, venue_name, seed, objective
):
    """Tied candidates come in id order, however the evaluation order
    met them (e.g. MC seed 3 MinMax: 144, 145, 147 tie at 36.9336)."""
    engine, clients, fs, want = tie_rankings(venue_name, seed)
    ranked, _ = top_k_ifls(
        engine.problem(clients, fs), 3, objective=objective
    )
    assert [entry.candidate for entry in ranked] == want[objective][:3]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios(), k=st.integers(1, 6),
       objective=st.sampled_from(["minmax", "mindist", "maxsum"]))
def test_topk_property_matches_exhaustive(scenario, k, objective):
    engine, clients, facilities = scenario
    problem = engine.problem(clients, facilities)
    ranked, _stats = top_k_ifls(problem, k, objective=objective)
    want = brute_ranking(engine, clients, facilities, objective)
    assert len(ranked) == min(k, len(facilities.candidates))
    for entry, (_pid, value) in zip(ranked, want):
        assert entry.objective == pytest.approx(value)
