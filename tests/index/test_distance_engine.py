"""Unit tests for the VIP-tree distance engine (iDist / iMinD)."""

import sys

import pytest

from repro import DistanceService, VIPTree
from repro.index.distance import VIPDistanceEngine
from repro.datasets import small_office
from tests.conftest import make_clients


@pytest.fixture(scope="module")
def setup():
    venue = small_office(levels=2, rooms=20)
    tree = VIPTree(venue)
    return venue, VIPDistanceEngine(tree), DistanceService(venue)


class TestIDist:
    def test_zero_inside_target(self, setup):
        venue, engine, _ = setup
        client = make_clients(venue, 1, seed=5)[0]
        assert engine.idist(client, client.partition_id) == 0.0

    def test_matches_exact_service(self, setup):
        venue, engine, exact = setup
        clients = make_clients(venue, 12, seed=6)
        targets = sorted(venue.partition_ids())
        for client in clients:
            for target in targets:
                got = engine.idist(client, target)
                want = exact.point_to_partition(
                    client.location, client.partition_id, target
                )
                assert got == pytest.approx(want), (client, target)

    def test_single_door_shortcut_matches_general_path(self, setup):
        venue, engine, exact = setup
        cold = VIPDistanceEngine(engine.tree, memoize=False)
        clients = make_clients(venue, 6, seed=7)
        targets = sorted(venue.partition_ids())[:8]
        for client in clients:
            for target in targets:
                assert engine.idist(client, target) == pytest.approx(
                    cold.idist(client, target)
                )

    def test_shortcut_counter_increments(self, setup):
        venue, engine, _ = setup
        # Rooms in the office venue have exactly one door.
        client = make_clients(venue, 1, seed=8)[0]
        before = engine.stats.single_door_shortcuts
        other = next(
            pid for pid in venue.partition_ids()
            if pid != client.partition_id
        )
        engine.idist(client, other)
        assert engine.stats.single_door_shortcuts == before + 1


class TestIMinD:
    def test_zero_for_same_partition(self, setup):
        venue, engine, _ = setup
        pid = next(venue.partition_ids())
        assert engine.imind_partitions(pid, pid) == 0.0

    def test_matches_exact_service(self, setup):
        venue, engine, exact = setup
        pids = sorted(venue.partition_ids())
        for a in pids[:6]:
            for b in pids[-6:]:
                assert engine.imind_partitions(a, b) == pytest.approx(
                    exact.partition_to_partition(a, b)
                )

    def test_memoisation_counts_hits(self, setup):
        venue, engine, _ = setup
        pids = sorted(venue.partition_ids())
        engine.imind_partitions(pids[0], pids[5])
        before = engine.stats.imind_cache_hits
        engine.imind_partitions(pids[5], pids[0])  # symmetric key
        assert engine.stats.imind_cache_hits == before + 1

    def test_node_bound_zero_when_covering(self, setup):
        venue, engine, _ = setup
        pid = next(venue.partition_ids())
        leaf = engine.tree.leaf_of(pid)
        assert engine.imind_node(pid, leaf) == 0.0
        assert engine.imind_node(pid, engine.tree.root) == 0.0

    def test_node_bound_lower_bounds_member_distances(self, setup):
        venue, engine, _ = setup
        pids = sorted(venue.partition_ids())
        for pid in pids[:5]:
            for node in engine.tree.nodes:
                bound = engine.imind_node(pid, node)
                for member in node.partitions:
                    assert (
                        bound <= engine.imind_partitions(pid, member) + 1e-9
                    )


class TestPointBounds:
    def test_point_bound_zero_when_covering(self, setup):
        venue, engine, _ = setup
        client = make_clients(venue, 1, seed=9)[0]
        leaf = engine.tree.leaf_of(client.partition_id)
        assert engine.point_min_dist_to_node(client, leaf) == 0.0

    def test_point_bound_lower_bounds_idist(self, setup):
        venue, engine, _ = setup
        clients = make_clients(venue, 5, seed=10)
        for client in clients:
            for node in engine.tree.nodes:
                bound = engine.point_min_dist_to_node(client, node)
                for member in node.partitions:
                    assert bound <= engine.idist(client, member) + 1e-9

    def test_point_bound_at_least_partition_bound(self, setup):
        venue, engine, _ = setup
        clients = make_clients(venue, 5, seed=11)
        for client in clients:
            for node in engine.tree.nodes:
                assert (
                    engine.point_min_dist_to_node(client, node)
                    >= engine.imind_node(client.partition_id, node) - 1e-9
                )


class TestCounterSemantics:
    """Uniform counting (d2d) and memoize-independent shortcuts."""

    def test_idist_identical_with_and_without_memoize(self, setup):
        venue, _, _ = setup
        tree = VIPTree(venue)
        memo = VIPDistanceEngine(tree, memoize=True)
        cold = VIPDistanceEngine(tree, memoize=False)
        clients = make_clients(venue, 10, seed=21)
        targets = sorted(venue.partition_ids())
        for client in clients:
            for target in targets:
                assert memo.idist(client, target) == cold.idist(
                    client, target
                ), (client.client_id, target)

    def test_shortcut_counted_in_both_modes(self, setup):
        venue, _, _ = setup
        tree = VIPTree(venue)
        clients = make_clients(venue, 5, seed=22)
        targets = sorted(venue.partition_ids())[:6]
        counts = []
        for memoize in (True, False):
            engine = VIPDistanceEngine(tree, memoize=memoize)
            for client in clients:
                for target in targets:
                    engine.idist(client, target)
            counts.append(engine.stats.single_door_shortcuts)
        assert counts[0] == counts[1] > 0

    def test_d2d_lookups_counted_uniformly(self, setup):
        venue, _, _ = setup
        tree = VIPTree(venue)
        doors = sorted(venue.door_ids())[:2]
        for memoize in (True, False):
            engine = VIPDistanceEngine(tree, memoize=memoize)
            for _ in range(3):
                engine.door_to_door(doors[0], doors[1])
            # Every probe counts as a lookup, memoised or not ...
            assert engine.stats.d2d_lookups == 3
            if memoize:
                # ... and with memoisation the repeats are hits.
                assert engine.stats.d2d_cache_hits == 2
            else:
                assert engine.stats.d2d_cache_hits == 0

    def test_hits_plus_computations_equals_calls(self, setup):
        venue, _, _ = setup
        tree = VIPTree(venue)
        for memoize in (True, False):
            engine = VIPDistanceEngine(tree, memoize=memoize)
            clients = make_clients(venue, 6, seed=23)
            for client in clients:
                for target in sorted(venue.partition_ids()):
                    engine.idist(client, target)
            s = engine.stats
            assert (
                s.imind_cache_hits
                + s.imind_node_cache_hits
                + s.distance_computations
                == s.imind_calls + s.imind_node_calls
            )


class TestEviction:
    def test_budget_bounds_cache_entries(self, setup):
        venue, _, _ = setup
        engine = VIPDistanceEngine(
            VIPTree(venue), memoize=True, max_cache_entries=25
        )
        pids = sorted(venue.partition_ids())
        for a in pids:
            for b in pids:
                engine.imind_partitions(a, b)
                assert engine.cache_entries() <= 25
        assert engine.stats.cache_evictions > 0

    def test_eviction_preserves_values(self, setup):
        venue, _, exact = setup
        engine = VIPDistanceEngine(
            VIPTree(venue), memoize=True, max_cache_entries=10
        )
        pids = sorted(venue.partition_ids())
        for a in pids[:8]:
            for b in pids[-8:]:
                assert engine.imind_partitions(a, b) == pytest.approx(
                    exact.partition_to_partition(a, b)
                )

    def test_clear_caches_empties_tables(self, setup):
        venue, _, _ = setup
        engine = VIPDistanceEngine(VIPTree(venue))
        pids = sorted(venue.partition_ids())
        engine.imind_partitions(pids[0], pids[3])
        assert engine.cache_entries() > 0
        engine.clear_caches()
        assert engine.cache_entries() == 0
        assert engine.cache_sizes() == {
            "imind_pp": 0, "imind_node": 0, "d2d": 0
        }


class TestTinyBudgets:
    """Regression: tiny budgets must never evict the fresh entry."""

    def _engine(self, setup, budget):
        _, engine, _ = setup
        return VIPDistanceEngine(
            engine.tree, memoize=True, max_cache_entries=budget
        )

    def test_negative_budget_rejected(self, setup):
        _, engine, _ = setup
        with pytest.raises(ValueError, match=">= 0"):
            VIPDistanceEngine(engine.tree, max_cache_entries=-1)

    def test_budget_zero_disables_cache(self, setup):
        engine = self._engine(setup, 0)
        doors = sorted(engine.venue.door_ids())[:2]
        cold = VIPDistanceEngine(engine.tree, memoize=False)
        for _ in range(3):
            assert engine.door_to_door(doors[0], doors[1]) == (
                cold.door_to_door(doors[0], doors[1])
            )
        assert engine.cache_entries() == 0
        assert engine.stats.d2d_cache_hits == 0
        assert engine.stats.cache_evictions == 0

    def test_budget_one_keeps_the_entry_just_stored(self, setup):
        engine = self._engine(setup, 1)
        doors = sorted(engine.venue.door_ids())[:3]
        engine.door_to_door(doors[0], doors[1])
        assert engine.cache_entries() == 1
        # The fresh entry survived its own store: re-probe is a hit.
        engine.door_to_door(doors[0], doors[1])
        assert engine.stats.d2d_cache_hits == 1
        # A second key evicts the first, and again keeps the fresh one.
        engine.door_to_door(doors[0], doors[2])
        assert engine.cache_entries() == 1
        assert engine.stats.cache_evictions == 1
        engine.door_to_door(doors[0], doors[2])
        assert engine.stats.d2d_cache_hits == 2

    def test_budget_two_evicts_oldest_first(self, setup):
        engine = self._engine(setup, 2)
        doors = sorted(engine.venue.door_ids())[:4]
        pairs = [(doors[0], d) for d in doors[1:]]
        for a, b in pairs:
            engine.door_to_door(a, b)
        assert engine.cache_entries() == 2
        assert engine.stats.cache_evictions == 1
        # The two newest pairs are retained, FIFO-evicting the oldest.
        hits_before = engine.stats.d2d_cache_hits
        for a, b in pairs[1:]:
            engine.door_to_door(a, b)
        assert engine.stats.d2d_cache_hits == hits_before + 2
        engine.door_to_door(*pairs[0])
        assert engine.stats.d2d_cache_hits == hits_before + 2

    def test_budget_one_across_tables(self, setup):
        engine = self._engine(setup, 1)
        pids = sorted(engine.venue.partition_ids())
        engine.imind_partitions(pids[0], pids[1])
        doors = sorted(engine.venue.door_ids())[:2]
        engine.door_to_door(doors[0], doors[1])
        # The d2d store evicted the imind_pp entry, not itself.
        assert engine.cache_sizes() == {
            "imind_pp": 0, "imind_node": 0, "d2d": 1
        }
        engine.door_to_door(doors[0], doors[1])
        assert engine.stats.d2d_cache_hits == 1


class TestCacheBytes:
    """Regression: shared key/value objects are charged once."""

    def test_shared_value_counted_once(self, setup):
        _, setup_engine, _ = setup
        engine = VIPDistanceEngine(setup_engine.tree)
        value = 123.456  # one float object referenced by all tables
        engine._imind_pp[(1, 2)] = value
        engine._imind_node[(1, 7)] = value
        engine._d2d_cache[(3, 4)] = value
        tables = (
            engine._imind_pp, engine._imind_node, engine._d2d_cache
        )
        naive = sum(sys.getsizeof(t) for t in tables)
        for table in tables:
            for key, val in table.items():
                naive += sys.getsizeof(key) + sys.getsizeof(val)
        assert engine.cache_bytes() == naive - 2 * sys.getsizeof(value)

    def test_distinct_objects_all_counted(self, setup):
        _, setup_engine, _ = setup
        engine = VIPDistanceEngine(setup_engine.tree)
        engine._imind_pp[(1, 2)] = 10.5
        engine._d2d_cache[(3, 4)] = 20.25
        tables = (
            engine._imind_pp, engine._imind_node, engine._d2d_cache
        )
        expected = sum(sys.getsizeof(t) for t in tables)
        for table in tables:
            for key, val in table.items():
                expected += sys.getsizeof(key) + sys.getsizeof(val)
        assert engine.cache_bytes() == expected


class TestStatsManagement:
    def test_reset_stats_returns_previous(self, setup):
        venue, _, _ = setup
        engine = VIPDistanceEngine(VIPTree(venue))
        clients = make_clients(venue, 2, seed=15)
        engine.idist(clients[0], clients[1].partition_id)
        old = engine.reset_stats()
        assert old.idist_calls >= 1
        assert engine.stats.idist_calls == 0
