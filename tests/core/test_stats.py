"""Unit tests for the statistics containers."""

from repro import QueryStats
from repro.index.distance import DistanceStats


class TestDistanceStats:
    def test_merge_accumulates(self):
        a = DistanceStats(distance_computations=3, d2d_lookups=5,
                          idist_calls=2)
        b = DistanceStats(distance_computations=1, d2d_lookups=2,
                          imind_cache_hits=7, single_door_shortcuts=4)
        a.merge(b)
        assert a.distance_computations == 4
        assert a.d2d_lookups == 7
        assert a.imind_cache_hits == 7
        assert a.idist_calls == 2
        assert a.single_door_shortcuts == 4

    def test_snapshot_keys(self):
        snap = DistanceStats().snapshot()
        assert set(snap) == {
            "distance_computations",
            "d2d_lookups",
            "d2d_cache_hits",
            "imind_calls",
            "imind_cache_hits",
            "imind_node_calls",
            "imind_node_cache_hits",
            "idist_calls",
            "single_door_shortcuts",
            "cache_evictions",
            "kernel_batches",
        }

    def test_cache_hits_aggregate(self):
        stats = DistanceStats(
            d2d_cache_hits=2, imind_cache_hits=3, imind_node_cache_hits=5
        )
        assert stats.cache_hits == 10


class TestQueryStats:
    def test_clients_remaining(self):
        stats = QueryStats(clients_total=10, clients_pruned=4)
        assert stats.clients_remaining == 6

    def test_snapshot_is_flat_and_complete(self):
        stats = QueryStats(
            algorithm="x",
            clients_total=5,
            facilities_retrieved=7,
            queue_pushes=11,
        )
        snap = stats.snapshot()
        assert snap["algorithm"] == "x"
        assert snap["clients_total"] == 5
        assert snap["facilities_retrieved"] == 7
        assert snap["queue_pushes"] == 11
        assert "idist_calls" in snap  # distance counters folded in
        assert all(not isinstance(v, dict) for v in snap.values())

    def test_defaults_are_zero(self):
        stats = QueryStats()
        assert stats.clients_pruned == 0
        assert stats.elapsed_seconds == 0.0
