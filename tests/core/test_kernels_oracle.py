"""Kernel-vs-scalar oracle: answers must be bit-identical.

The dense-array kernels replace the scalar inner loops with array
reductions over the *same* candidate sets and identically-ordered
additions, so every comparison here uses ``==`` on floats — the scalar
engine (``use_kernels=False``) is the oracle, not an approximation
baseline.  Covered: all three objectives, serial / session / parallel
execution, a venue whose door matrix is not exactly symmetric (MZB),
and the degenerate workloads (single client, one group, everyone
pruned in the pre-phase).
"""

import random

import pytest

pytest.importorskip("numpy")

from repro import (  # noqa: E402
    FacilitySets,
    IFLSEngine,
    QueryRequest,
)
from repro.datasets import (  # noqa: E402
    random_facility_sets,
    small_office,
    uniform_clients,
    venue_by_name,
)

OBJECTIVES = ("minmax", "mindist", "maxsum")


@pytest.fixture(scope="module")
def engines():
    venue = small_office(levels=2, rooms=24)
    kernel = IFLSEngine(venue, use_kernels=True)
    scalar = IFLSEngine(venue, tree=kernel.tree, use_kernels=False)
    assert kernel.use_kernels and not scalar.use_kernels
    return venue, kernel, scalar


@pytest.fixture(scope="module")
def mzb_engines():
    venue = venue_by_name("MZB")
    kernel = IFLSEngine(venue, use_kernels=True)
    return venue, kernel, IFLSEngine(
        venue, tree=kernel.tree, use_kernels=False
    )


def _workload(venue, seed, clients=40):
    rng = random.Random(seed)
    facilities = random_facility_sets(venue, 4, 8, rng)
    return list(uniform_clients(venue, clients, rng)), facilities


def _assert_same_result(got, want):
    assert got.answer == want.answer
    assert got.objective == want.objective  # bit-identical float
    assert str(got.status) == str(want.status)


def _assert_same_query_stats(got, want):
    for field in (
        "clients_pruned",
        "facilities_retrieved",
        "queue_pushes",
        "queue_pops",
        "iterations",
    ):
        assert getattr(got, field) == getattr(want, field), field


class TestSerialOracle:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_cold_query_bit_identical(self, engines, objective, seed):
        venue, kernel, scalar = engines
        clients, facilities = _workload(venue, seed)
        got = kernel.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar.query(
            clients, facilities, objective=objective, cold=True
        )
        _assert_same_result(got, want)
        _assert_same_query_stats(got.stats, want.stats)

    @pytest.mark.parametrize(
        "seed,objective", [(2, "minmax"), (4, "minmax"), (1, "mindist")]
    )
    def test_mzb_cold_query_bit_identical(
        self, mzb_engines, seed, objective
    ):
        """MZB's door matrix differs from its transpose in the last
        bits: every distance must be read in the pack's direction."""
        venue, kernel, scalar = mzb_engines
        rng = random.Random(seed)
        facilities = random_facility_sets(venue, 50, 100, rng)
        clients = uniform_clients(venue, 300, rng)
        got = kernel.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar.query(
            clients, facilities, objective=objective, cold=True
        )
        assert got.objective.hex() == want.objective.hex()
        _assert_same_result(got, want)
        _assert_same_query_stats(got.stats, want.stats)
        assert (
            got.stats.distance.idist_calls
            == want.stats.distance.idist_calls
        )

    def test_kernel_path_actually_ran(self, engines):
        venue, kernel, scalar = engines
        clients, facilities = _workload(venue, 15)
        kernel.distances.reset_stats()
        scalar.distances.reset_stats()
        kernel.query(clients, facilities)
        scalar.query(clients, facilities)
        assert kernel.distances.stats.kernel_batches > 0
        assert scalar.distances.stats.kernel_batches == 0


class TestSessionOracle:
    def _batch(self, venue, count=6):
        queries = []
        rng = random.Random(77)
        for number in range(count):
            facilities = random_facility_sets(venue, 3, 6, rng)
            clients = tuple(uniform_clients(venue, 30, rng))
            queries.append(
                QueryRequest(
                    clients,
                    facilities,
                    objective=OBJECTIVES[number % len(OBJECTIVES)],
                    label=f"q{number}",
                )
            )
        return queries

    @pytest.mark.parametrize("budget", [None, 300])
    def test_warm_session_bit_identical(self, engines, budget):
        venue, kernel, scalar = engines
        batch = self._batch(venue)
        got = kernel.session(max_cache_entries=budget).run(batch)
        want = scalar.session(max_cache_entries=budget).run(batch)
        assert len(got) == len(want) == len(batch)
        for mine, oracle in zip(got, want):
            _assert_same_result(mine, oracle)
            _assert_same_query_stats(mine.stats, oracle.stats)

    def test_parallel_bit_identical(self, engines):
        venue, kernel, scalar = engines
        batch = self._batch(venue)
        got = kernel.session().run(batch, workers=2)
        want = scalar.session().run(batch)
        assert len(got) == len(batch)
        for mine, oracle in zip(got, want):
            _assert_same_result(mine, oracle)


class TestEdgeCases:
    def _facilities(self, venue, rng=None):
        rng = rng or random.Random(91)
        return random_facility_sets(venue, 3, 6, rng)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_single_client(self, engines, objective):
        venue, kernel, scalar = engines
        rng = random.Random(92)
        facilities = self._facilities(venue, rng)
        clients = list(uniform_clients(venue, 1, rng))
        _assert_same_result(
            kernel.query(
                clients, facilities, objective=objective, cold=True
            ),
            scalar.query(
                clients, facilities, objective=objective, cold=True
            ),
        )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_all_clients_in_existing_partitions(self, engines, objective):
        """Every client sits inside an existing facility: de(c) == 0,
        so the pre-phase/Lemma 5.1 machinery prunes everyone."""
        venue, kernel, scalar = engines
        facilities = self._facilities(venue)
        rng = random.Random(93)
        pool = list(uniform_clients(venue, 120, rng))
        existing = set(facilities.existing)
        clients = [
            c for c in pool if c.partition_id in existing
        ][:10]
        if not clients:
            pytest.skip("seeded pool missed the existing partitions")
        got = kernel.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar.query(
            clients, facilities, objective=objective, cold=True
        )
        _assert_same_result(got, want)
        _assert_same_query_stats(got.stats, want.stats)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_one_group_single_partition(self, engines, objective):
        venue, kernel, scalar = engines
        facilities = self._facilities(venue)
        rng = random.Random(94)
        pool = list(uniform_clients(venue, 60, rng))
        taken = set(facilities.existing) | set(facilities.candidates)
        groups = {}
        for client in pool:
            if client.partition_id in taken:
                continue
            groups.setdefault(client.partition_id, []).append(client)
        clients = max(groups.values(), key=len)
        assert len(clients) >= 2
        got = kernel.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar.query(
            clients, facilities, objective=objective, cold=True
        )
        _assert_same_result(got, want)
        _assert_same_query_stats(got.stats, want.stats)

    def test_single_candidate(self, engines):
        venue, kernel, scalar = engines
        rng = random.Random(95)
        base = random_facility_sets(venue, 3, 4, rng)
        facilities = FacilitySets(
            base.existing, frozenset(list(base.candidates)[:1])
        )
        clients, _ = _workload(venue, 96, clients=12)
        for objective in OBJECTIVES:
            _assert_same_result(
                kernel.query(
                    clients, facilities, objective=objective, cold=True
                ),
                scalar.query(
                    clients, facilities, objective=objective, cold=True
                ),
            )
