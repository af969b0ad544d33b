"""Dense-array kernel pack: packing, blocks, the group lane, gating.

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
from repro.datasets import (  # noqa: E402
    small_office,
    uniform_clients,
    venue_by_name,
)
from repro.core.efficient import _Group  # noqa: E402
from repro.errors import IndexError_  # noqa: E402
from repro.index import kernels  # noqa: E402
from repro.index.distance import ARRAY_CLIENTS, VIPDistanceEngine  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    venue = small_office(levels=2, rooms=16)
    tree = VIPTree(venue)
    return venue, tree


def _clients_by_partition(venue, count, seed):
    """Uniform clients (area-weighted, corridors included) by room."""
    groups = {}
    for client in uniform_clients(venue, count, random.Random(seed)):
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
        scalar = VIPDistanceEngine(
            tree, max_cache_entries=0, use_kernels=False
        )
        pids = sorted(venue.partition_ids())[:6]
        for pid in pids:
            for node in tree.nodes:
                if tree.covers(node, pid):
                    continue
                assert pack.imind_node(pid, node) == scalar.imind_node(
                    pid, node
                ), (pid, node.node_id)


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
                assert len(mins) == len(exits)
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
        assert type(mins) is list
        assert all(type(best) is float for best in mins)

    def test_partition_pair_min_matches_scalar_imind(self, setup):
        venue, tree = setup
        pack = tree.kernels()
        scalar = VIPDistanceEngine(
            tree, max_cache_entries=0, use_kernels=False
        )
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
    return min(mins, default=float("inf"))


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


def _memo_free_scalar(tree):
    return VIPDistanceEngine(tree, max_cache_entries=0, use_kernels=False)


@pytest.fixture(scope="module")
def cph():
    venue = venue_by_name("CPH")
    return venue, VIPTree(venue)


class TestGroupLane:
    """``idist_group``: one call per facility retrieval, equal client
    by client to a memo-free scalar ``idist``."""

    def _targets(self, venue, count=10, seed=47):
        pids = sorted(venue.partition_ids())
        return random.Random(seed).sample(pids, min(count, len(pids)))

    def _assert_lane_matches(
        self, venue, tree, groups, targets, form=list
    ):
        engine = VIPDistanceEngine(tree, use_kernels=True)
        scalar = _memo_free_scalar(tree)
        for pid, clients in groups:
            offsets = form(engine.exit_offsets(pid, clients))
            for target in targets:
                got = engine.idist_group(pid, offsets, target)
                want = [scalar.idist(c, target) for c in clients]
                assert [v.hex() for v in got] == [
                    v.hex() for v in want
                ], (pid, target)

    def _multi_door_groups(self, venue, count, seed):
        groups = _clients_by_partition(venue, count, seed)
        return [
            (pid, clients)
            for pid, clients in sorted(groups.items())
            if len(tuple(venue.doors_of(pid))) > 1
        ]

    def test_exit_offsets_match_intra_distances(self, setup):
        venue, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=True)
        for pid, clients in _clients_by_partition(venue, 40, 41).items():
            offsets = engine.exit_offsets(pid, clients)
            partition = venue.partition(pid)
            doors = tuple(venue.doors_of(pid))
            assert len(offsets) == len(doors)
            for column, door in zip(offsets, doors):
                assert column == [
                    partition.intra_distance(
                        client.location, venue.door(door).location
                    )
                    for client in clients
                ]

    def test_list_offsets_match_scalar(self, setup, cph):
        """Groups below ``ARRAY_CLIENTS``: the Python sum over offset
        lists, single- and multi-door alike."""
        for venue, tree in (setup, cph):
            groups = [
                (pid, clients[: ARRAY_CLIENTS - 1])
                for pid, clients in sorted(
                    _clients_by_partition(venue, 200, 45).items()
                )
            ]
            assert any(len(c) > 1 for _, c in groups)
            self._assert_lane_matches(
                venue, tree, groups, self._targets(venue)
            )

    def test_array_offsets_match_scalar(self, cph):
        """Multi-door groups of at least ``ARRAY_CLIENTS`` clients take the
        array reduction (CPH's halls have many doors), from offset
        lists and from one 2-D array."""
        venue, tree = cph
        groups = [
            (pid, clients)
            for pid, clients in self._multi_door_groups(venue, 1500, 46)
            if len(clients) >= ARRAY_CLIENTS
        ]
        assert groups, "seeded clients fill a multi-door room"
        for form in (list, np.array):
            self._assert_lane_matches(
                venue, tree, groups, self._targets(venue), form
            )

    def test_pruned_subset_matches_scalar(self, cph):
        """A group's active offsets after prunes (before and after its
        offsets were taken) and after compaction."""
        venue, tree = cph
        engine = VIPDistanceEngine(tree, use_kernels=True)
        scalar = _memo_free_scalar(tree)
        pid, clients = max(
            self._multi_door_groups(venue, 1500, 48),
            key=lambda item: len(item[1]),
        )
        by_id = {c.client_id: c for c in clients}
        ids = list(by_id)
        targets = self._targets(venue, count=4)
        group = _Group(pid, list(clients))

        def check(expected):
            active, offsets = group.active()
            assert active == expected
            for target in targets:
                assert engine.idist_group(pid, offsets, target) == [
                    scalar.idist(by_id[i], target) for i in active
                ]

        group.pruned.add(ids[0])
        group.offsets = engine.exit_offsets(pid, group.clients)
        check(ids[1:])
        group.pruned.update(ids[2:5])
        check([ids[1]] + ids[5:])
        group.compact()
        assert group.client_ids == [ids[1]] + ids[5:]
        assert group.offsets == engine.exit_offsets(pid, group.clients)
        check(group.client_ids)
        group.pruned.add(ids[5])
        check([ids[1]] + ids[6:])

    def test_counters_advance_as_documented(self, setup, cph):
        """One idist call per client; a single-door group counts that
        many shortcuts and one batch, plus its ``iMinD``; a multi-door
        group counts its exit x target door block and one batch."""
        kinds = set()
        for venue, tree in (setup, cph):
            engine = VIPDistanceEngine(tree, use_kernels=True)
            groups = _clients_by_partition(venue, 200, 49)
            for pid, clients in sorted(groups.items()):
                exits = len(tuple(venue.doors_of(pid)))
                kinds.add(exits == 1)
                offsets = engine.exit_offsets(pid, clients)
                for target in self._targets(venue, count=3):
                    if target == pid:
                        continue
                    before = engine.stats.snapshot()
                    engine.idist_group(pid, offsets, target)
                    after = engine.stats.snapshot()
                    delta = {
                        key: after[key] - before[key] for key in after
                    }
                    assert delta["idist_calls"] == len(clients)
                    if exits == 1:
                        computed = delta["distance_computations"]
                        assert delta["single_door_shortcuts"] == len(
                            clients
                        )
                        assert delta["imind_calls"] == 1
                        assert delta["kernel_batches"] == 1 + computed
                    else:
                        doors = len(tuple(venue.doors_of(target)))
                        assert delta["single_door_shortcuts"] == 0
                        assert delta["imind_calls"] == 0
                        assert delta["distance_computations"] == 0
                        assert delta["d2d_lookups"] == exits * doors
                        assert delta["kernel_batches"] == 1
        assert kinds == {True, False}


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
        assert engine.kernel_pack is None
        assert engine.stats.kernel_batches == 0

    def test_clear_caches_rebuilds_pack(self, setup):
        _, tree = setup
        engine = VIPDistanceEngine(tree, use_kernels=True)
        pack = engine.kernel_pack
        engine.clear_caches()
        assert engine.kernel_pack is not None
        assert engine.kernel_pack is not pack
        assert engine.kernel_pack is tree.kernels()
