"""Dense-array kernel pack: packing, blocks, group state, gating.

Every value-producing kernel is checked for *bit-identity* (``==``,
not ``approx``) against the scalar resolution it replaces — the pack
reads the same matrices and performs the same additions in the same
order, so exact equality is the contract, not a lucky outcome.
"""

import pickle
import random

import pytest

np = pytest.importorskip("numpy")

from repro import VIPTree  # noqa: E402
from repro.datasets import small_office, venue_by_name  # noqa: E402
from repro.errors import IndexError_, QueryError  # noqa: E402
from repro.index import kernels  # noqa: E402
from repro.index.distance import VIPDistanceEngine  # noqa: E402
from tests.conftest import make_clients  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    venue = small_office(levels=2, rooms=16)
    tree = VIPTree(venue)
    return venue, tree


def _clients_by_partition(venue, count, seed):
    groups = {}
    for client in make_clients(venue, count, seed=seed):
        groups.setdefault(client.partition_id, []).append(client)
    return groups


class TestPackLifecycle:
    def test_lazy_shared_and_invalidated(self, setup):
        _, tree = setup
        pack = tree.kernels()
        assert tree.kernels() is pack
        tree.invalidate_kernels()
        rebuilt = tree.kernels()
        assert rebuilt is not pack
        assert np.array_equal(rebuilt.R, pack.R)

    def test_pack_dropped_from_pickles(self, setup):
        _, tree = setup
        tree.kernels()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone._kernel_pack is None
        # ... and is lazily rebuilt on the restored tree.
        assert clone.kernels().door_col == tree.kernels().door_col

    def test_engines_share_the_tree_pack(self, setup):
        _, tree = setup
        first = VIPDistanceEngine(tree, use_kernels=True)
        second = VIPDistanceEngine(tree, use_kernels=True)
        assert first.kernel_pack is second.kernel_pack

    def test_diagonal_is_zero(self, setup):
        _, tree = setup
        pack = tree.kernels()
        for door, row in pack.access_row.items():
            assert pack.R[row, pack.door_col[door]] == 0.0


class TestD2DBlock:
    """``F`` is the exact door x door matrix, read through
    ``source_rows`` and ``door_cols`` as every kernel reads it."""

    def test_matches_tree_over_all_pairs(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        doors = sorted(venue.door_ids())
        block = pack.F[
            pack.source_rows(doors)[:, None], pack.door_cols(doors)
        ]
        for i, a in enumerate(doors):
            for j, b in enumerate(doors):
                assert block[i, j] == tree.door_to_door(a, b), (a, b)

    def test_unknown_door_raises(self, setup):
        _, tree = setup
        pack = tree.kernels()
        with pytest.raises(IndexError_, match="not indexed"):
            pack.source_rows([10**9])

    def test_imind_node_matches_scalar(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        scalar = VIPDistanceEngine(tree, memoize=False, use_kernels=False)
        pids = sorted(venue.partition_ids())[:6]
        for pid in pids:
            for node in tree.nodes:
                if tree.covers(node, pid):
                    continue
                assert pack.imind_node(pid, node) == scalar.imind_node(
                    pid, node
                ), (pid, node.node_id)


class TestEngineBatches:
    def test_idist_rows_matches_scalar(self, setup):
        venue, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=True)
        scalar = VIPDistanceEngine(tree, use_kernels=False)
        targets = sorted(venue.partition_ids())[:8]
        for pid, group in sorted(_clients_by_partition(venue, 24, 31).items()):
            arrays = engine.group_arrays(group, pid)
            for target in targets:
                got = engine.idist_rows(
                    arrays, np.arange(len(group)), target
                )
                want = [scalar.idist(c, target) for c in group]
                assert list(got) == want

    def test_batch_entry_points_require_kernels(self, setup):
        venue, tree = setup
        scalar = VIPDistanceEngine(tree, use_kernels=False)
        pid, group = next(iter(_clients_by_partition(venue, 8, 34).items()))
        with pytest.raises(QueryError, match="use_kernels=True"):
            scalar.group_arrays(group, pid)
        assert scalar.kernel_pack is None


class TestGroupArrays:
    def _arrays(self, setup, seed=41):
        venue, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=True)
        groups = _clients_by_partition(venue, 40, seed)
        pid, clients = max(
            groups.items(), key=lambda item: len(item[1])
        )
        return engine, pid, clients, engine.group_arrays(clients, pid)

    def test_offsets_match_scalar_intra_distances(self, setup):
        venue, _ = setup
        engine, pid, clients, arrays = self._arrays(setup)
        partition = venue.partition(pid)
        for i, client in enumerate(clients):
            for j, door in enumerate(arrays.exit_doors):
                want = partition.intra_distance(
                    client.location, engine._door_locations[door]
                )
                assert arrays.offsets[i, j] == want

    def test_mask_prune_and_active_rows(self, setup):
        _, _, clients, arrays = self._arrays(setup)
        assert list(arrays.active_rows()) == list(range(len(clients)))
        arrays.mark_pruned(clients[0].client_id)
        arrays.mark_pruned(10**9)  # unknown ids are ignored
        assert list(arrays.active_rows()) == list(
            range(1, len(clients))
        )

    def test_compact_realigns_rows(self, setup):
        _, _, clients, arrays = self._arrays(setup)
        if len(clients) < 3:
            pytest.skip("needs a group of at least 3 clients")
        victim = clients[1]
        arrays.mark_pruned(victim.client_id)
        survivors = [c for c in clients if c is not victim]
        before = arrays.offsets[arrays.active_rows()]
        arrays.compact(survivors)
        assert arrays.offsets.shape[0] == len(survivors)
        assert np.array_equal(arrays.offsets, before)
        assert list(arrays.active_rows()) == list(
            range(len(survivors))
        )
        arrays.mark_pruned(survivors[0].client_id)
        assert list(arrays.active_rows()) == list(
            range(1, len(survivors))
        )

    def test_pruned_seeded_at_construction(self, setup):
        engine, pid, clients, _ = self._arrays(setup)
        arrays = engine.group_arrays(
            clients, pid, pruned=[clients[0].client_id]
        )
        assert list(arrays.active_rows()) == list(
            range(1, len(clients))
        )


class TestDerivedReductions:
    def test_exit_door_mins_matches_block_reduction(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        pids = sorted(venue.partition_ids())[:6]
        for source in pids:
            exits = tuple(venue.doors_of(source))
            for target in pids:
                doors = tuple(venue.doors_of(target))
                mins = pack.exit_door_mins(source, target)
                assert mins.shape == (len(exits),)
                for row, door in enumerate(exits):
                    want = min(
                        (tree.door_to_door(door, other) for other in doors),
                        default=float("inf"),
                    )
                    assert mins[row] == want, (source, target, door)

    def test_exit_door_mins_cached_and_listed(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        a, b = sorted(venue.partition_ids())[:2]
        mins = pack.exit_door_mins(a, b)
        assert pack.exit_door_mins(a, b) is mins
        listed = pack.exit_door_mins_list(a, b)
        assert listed == mins.tolist()
        assert pack.exit_door_mins_list(a, b) is listed

    def test_partition_pair_min_matches_scalar_imind(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        scalar = VIPDistanceEngine(tree, memoize=False, use_kernels=False)
        pids = sorted(venue.partition_ids())[:6]
        for a in pids:
            for b in pids:
                if a == b:
                    continue
                assert pack.partition_pair_min(a, b) == (
                    scalar.imind_partitions(a, b)
                ), (a, b)


def _pair_min(pack, p, q):
    """The pairwise reduction: ``F[rows(lo), cols(hi)]``, ``lo < hi``."""
    if p == q:
        return 0.0
    mins = pack.exit_door_mins(min(p, q), max(p, q))
    return float(mins.min()) if mins.size else float("inf")


def _assert_leaf_rows_match_pairs(tree, sources):
    """Every leaf row of each source equals the pairwise reduction,
    compared as hex strings (bit identity, not ``==``)."""
    pack = tree.kernels()
    leaves = list(tree.leaves())
    for p in sources:
        for leaf in leaves:
            got = [best.hex() for best in pack.leaf_row(p, leaf)]
            want = [_pair_min(pack, p, q).hex() for q in leaf.partitions]
            assert got == want, (p, leaf.node_id)
            assert got == [
                (0.0 if q == p else pack.partition_pair_min(q, p)).hex()
                for q in leaf.partitions
            ], (p, leaf.node_id)


class TestLeafRows:
    """CH, MZB and CPH door matrices differ from their transposes in
    the last bits; a one-sided gather would break bit identity."""

    def test_every_leaf_row_on_cph(self):
        tree = VIPTree(venue_by_name("CPH"))
        pack = tree.kernels()
        assert not np.array_equal(pack.F, pack.F.T)
        sources = sorted(tree.venue.partition_ids())
        _assert_leaf_rows_match_pairs(tree, sources)

    def test_sampled_leaf_rows_on_ch(self):
        tree = VIPTree(venue_by_name("CH"))
        sources = random.Random(18).sample(
            sorted(tree.venue.partition_ids()), 40
        )
        _assert_leaf_rows_match_pairs(tree, sources)


class TestValueLanes:
    def _group(self, setup, seed=44):
        venue, tree = setup
        groups = _clients_by_partition(venue, 40, seed)
        pid, clients = max(groups.items(), key=lambda kv: len(kv[1]))
        return venue, tree, pid, clients

    def test_idist_values_matches_rows_and_counters(self, setup):
        venue, tree, pid, clients = self._group(setup)
        lists = VIPDistanceEngine(tree, use_kernels=True)
        rows_eng = VIPDistanceEngine(tree, use_kernels=True)
        for target in sorted(venue.partition_ids())[:8]:
            a_lists = lists.group_arrays(clients, pid)
            a_rows = rows_eng.group_arrays(clients, pid)
            got_rows, got_values = lists.idist_values(a_lists, target)
            want = rows_eng.idist_rows(
                a_rows, a_rows.active_rows(), target
            )
            assert got_rows == list(range(len(clients)))
            assert got_values == want.tolist()
        for field in (
            "idist_calls",
            "single_door_shortcuts",
            "d2d_lookups",
            "kernel_batches",
            "imind_calls",
            "distance_computations",
        ):
            assert getattr(lists.stats, field) == getattr(
                rows_eng.stats, field
            ), field

    def test_idist_values_respects_pruning(self, setup):
        venue, tree, pid, clients = self._group(setup)
        engine = VIPDistanceEngine(tree, use_kernels=True)
        scalar = VIPDistanceEngine(tree, use_kernels=False)
        arrays = engine.group_arrays(clients, pid)
        arrays.mark_pruned(clients[0].client_id)
        target = next(
            p for p in sorted(venue.partition_ids()) if p != pid
        )
        rows, values = engine.idist_values(arrays, target)
        assert rows == list(range(1, len(clients)))
        assert values == [
            scalar.idist(c, target) for c in clients[1:]
        ]

    def test_idist_single_door_matches_scalar(self, setup):
        venue, tree = setup
        single = next(
            p
            for p in sorted(venue.partition_ids())
            if len(tuple(venue.doors_of(p))) == 1
        )
        clients = [
            c
            for c in make_clients(venue, 60, seed=45)
            if c.partition_id == single
        ]
        assert clients, "seeded clients reach a single-door partition"
        engine = VIPDistanceEngine(tree, use_kernels=True)
        scalar = VIPDistanceEngine(tree, use_kernels=False)
        assert engine.single_exit(single)
        ids = [c.client_id for c in clients]
        offsets = engine.single_door_offsets(single, clients)
        for target in sorted(venue.partition_ids())[:8]:
            kept, values = engine.idist_single_door(
                single, ids, offsets, set(), target
            )
            assert kept == ids
            assert values == [scalar.idist(c, target) for c in clients]

    def test_idist_single_door_filters_pruned(self, setup):
        venue, tree = setup
        single = next(
            p
            for p in sorted(venue.partition_ids())
            if len(tuple(venue.doors_of(p))) == 1
        )
        clients = [
            c
            for c in make_clients(venue, 60, seed=46)
            if c.partition_id == single
        ]
        if len(clients) < 2:
            pytest.skip("needs two clients in one single-door room")
        engine = VIPDistanceEngine(tree, use_kernels=True)
        target = next(
            p for p in sorted(venue.partition_ids()) if p != single
        )
        pruned = {clients[0].client_id}
        ids = [c.client_id for c in clients]
        offsets = engine.single_door_offsets(single, clients)
        kept, values = engine.idist_single_door(
            single, ids, offsets, pruned, target
        )
        assert kept == ids[1:]
        scalar = VIPDistanceEngine(tree, use_kernels=False)
        assert values == [scalar.idist(c, target) for c in clients[1:]]
        assert engine.stats.idist_calls == len(kept)
        assert engine.stats.single_door_shortcuts == len(kept)
        # One batch for the lane itself plus one for the cold iMinD
        # block reduction it triggered.
        assert engine.stats.kernel_batches == 2


class TestGating:
    def test_env_flag_disables_default(self, setup, monkeypatch):
        _, tree = setup
        for value in ("0", "false", "off", "no", " OFF "):
            monkeypatch.setenv(kernels.ENV_FLAG, value)
            assert not kernels.default_enabled()
            assert not VIPDistanceEngine(tree).use_kernels
        monkeypatch.setenv(kernels.ENV_FLAG, "1")
        assert kernels.default_enabled()

    def test_explicit_true_overrides_env(self, setup, monkeypatch):
        _, tree = setup
        monkeypatch.setenv(kernels.ENV_FLAG, "0")
        engine = VIPDistanceEngine(tree, use_kernels=True)
        assert engine.use_kernels
        assert engine.kernel_pack is not None

    def test_explicit_false_is_scalar(self, setup):
        _, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=False)
        assert not engine.use_kernels
        assert engine.stats.kernel_batches == 0

    def test_clear_caches_rebuilds_pack(self, setup):
        _, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=True)
        pack = engine.kernel_pack
        engine.clear_caches()
        assert engine.kernel_pack is not None
        assert engine.kernel_pack is not pack
        assert engine.kernel_pack is tree.kernels()
