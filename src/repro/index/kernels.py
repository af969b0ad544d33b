"""Contiguous-array kernels for the VIP-tree hot path.

The scalar :class:`~repro.index.distance.VIPDistanceEngine` resolves
every distance through dict-keyed door/partition lookups — one Python
loop iteration (and one hash probe) per door pair.  This module re-lays
the tree's matrices as dense numpy arrays once per tree, so the three
IFLS distance primitives become sliced array reductions over a whole
client group (or candidate set) per call:

* :class:`KernelPack` — the packed index data: one ``float64`` matrix
  of access-door rows (``R[row, col]`` = exact distance from access
  door ``row`` to door ``col``; missing entries are ``+inf``, matching
  the scalar ``row.get(b, inf)``), plus ``int32`` id→row / id→column
  maps for doors, per-node access-door row lists, and per-partition
  door column lists.  Built lazily by :meth:`VIPTree.kernels` and
  shared by every engine on the tree.
* :class:`GroupArrays` — per-group client state for the solvers: the
  clients' intra-partition offsets to their exit doors as one
  ``(clients, exit_doors)`` matrix (the paper's ``d(c, d_i)`` terms,
  computed once per group instead of once per facility retrieval) and
  the Lemma 5.1 pruned mask.

Every kernel computes exactly the same IEEE-754 values as the scalar
path: the candidate sets are identical and only ``min`` reductions and
identically-ordered additions are performed, so answers are
bit-identical (``tests/core/test_kernels_oracle.py`` proves it).  The
scalar path is kept as the ``use_kernels=False`` oracle.

numpy is optional: :func:`available` gates every entry point, and the
``IFLS_USE_KERNELS`` environment variable (``0``/``false``/``off``)
forces the scalar default for whole processes (the CI scalar-oracle
job runs the full test suite this way).
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

try:  # numpy is optional; the scalar path never imports it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via IFLS_USE_KERNELS
    _np = None

from ..errors import IndexError_
from ..indoor.entities import Client, DoorId, PartitionId
from ..obs import metrics as _metrics
from ..obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import VIPNode
    from .viptree import VIPTree

INFINITY = float("inf")

#: Environment switch: set to 0/false/off to default every engine to
#: the scalar oracle path (numpy absent has the same effect).
ENV_FLAG = "IFLS_USE_KERNELS"

_OFF_VALUES = ("0", "false", "off", "no")


def available() -> bool:
    """True when numpy is importable (kernels can be built)."""
    return _np is not None


def default_enabled() -> bool:
    """Process-wide default for ``use_kernels=None`` engines."""
    if _np is None:
        return False
    flag = os.environ.get(ENV_FLAG, "").strip().lower()
    return flag not in _OFF_VALUES or flag == ""


class KernelPack:
    """Dense-array re-layout of one :class:`VIPTree`'s matrices.

    The pack is immutable and derives only from the tree (never from
    query state), so it is safe to share across engines and sessions;
    ``VIPTree.invalidate_kernels`` drops it for venue-edit rebuilds.
    """

    def __init__(self, tree: "VIPTree") -> None:
        if _np is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("numpy is required to build kernels")
        self.tree = tree
        venue = tree.venue
        door_ids = sorted(d.door_id for d in venue.doors())
        #: door id -> dense column index
        self.door_col: Dict[DoorId, int] = {
            door: col for col, door in enumerate(door_ids)
        }
        access_ids = sorted(tree.rows)
        #: access-door id -> dense row index
        self.access_row: Dict[DoorId, int] = {
            door: row for row, door in enumerate(access_ids)
        }
        n_doors = len(door_ids)
        matrix = _np.full(
            (len(access_ids), n_doors), INFINITY, dtype=_np.float64
        )
        for door, row in self.access_row.items():
            source = tree.rows[door]
            for target, dist in source.items():
                col = self.door_col.get(target)
                if col is not None:
                    matrix[row, col] = dist
        #: access-door rows: ``R[row, col]`` = door-graph distance
        self.R = matrix
        #: node id -> int32 array of access-door row indices
        self.node_rows: Dict[int, "_np.ndarray"] = {
            node.node_id: _np.fromiter(
                (self.access_row[d] for d in node.access_doors),
                dtype=_np.int32,
                count=len(node.access_doors),
            )
            for node in tree.nodes
        }
        #: non-access door id -> access rows of its first leaf (the
        #: boundary-decomposition pivot set of the scalar path)
        self.decomp_rows: Dict[DoorId, "_np.ndarray"] = {}
        for door, leaves in tree._door_leaf.items():
            if door in self.access_row or not leaves:
                continue
            access = tree.nodes[leaves[0]].access_doors
            self.decomp_rows[door] = _np.fromiter(
                (self.access_row[d] for d in access),
                dtype=_np.int32,
                count=len(access),
            )
        #: non-access door id -> dense row index into ``G``
        self.nonacc_row: Dict[DoorId, int] = {
            door: row for row, door in enumerate(sorted(self.decomp_rows))
        }
        #: non-access door rows: ``G[row, col]`` = exact
        #: ``VIPTree.door_to_door`` — the boundary decomposition, local
        #: same-leaf mins, access-row overrides, and zero diagonal are
        #: baked in at build time (vectorized per leaf), so every
        #: door-pair distance is one gather at query time.
        self.G = self._build_general_rows(tree, matrix)
        #: full door x door matrix: ``F[col_a, col_b]`` = exact
        #: ``door_to_door`` for every *indexed* source door (row index
        #: == the door's column index; unindexed rows stay ``inf``).
        #: One 2-D gather answers any door block with no Python loop.
        self.F = _np.full((n_doors, n_doors), INFINITY, dtype=_np.float64)
        #: indexed door id -> ``F`` row (== its ``door_col`` entry)
        self.door_row: Dict[DoorId, int] = {}
        for door, row in self.access_row.items():
            col = self.door_col[door]
            self.F[col] = matrix[row]
            self.door_row[door] = col
        for door, row in self.nonacc_row.items():
            col = self.door_col[door]
            self.F[col] = self.G[row]
            self.door_row[door] = col
        #: partition id -> int32 door column array (venue door order,
        #: identical to the scalar engine's ``_doors`` tuples)
        self._part_cols: Dict[PartitionId, "_np.ndarray"] = {}
        self._part_rows: Dict[PartitionId, "_np.ndarray"] = {}
        # Derived-reduction caches.  Every entry is a pure function of
        # the tree's matrices (no query state), so — like ``R`` itself —
        # they are shared by all engines on the tree and live for the
        # pack's lifetime; ``VIPTree.invalidate_kernels`` drops the
        # whole pack.  Bounded by |partitions| x |nodes| floats,
        # |partitions|^2 short vectors, and for the leaf rows at most
        # |partitions| floats per partition (a partition sits in
        # exactly one leaf) plus one layout per leaf.
        self._node_min: Dict[Tuple[PartitionId, int], float] = {}
        self._exit_mins: Dict[
            Tuple[PartitionId, PartitionId], "_np.ndarray"
        ] = {}
        self._exit_mins_list: Dict[
            Tuple[PartitionId, PartitionId], List[float]
        ] = {}
        self._leaf_layouts: Dict[int, LeafLayout] = {}
        self._leaf_rows: Dict[Tuple[PartitionId, int], List[float]] = {}

    def _build_general_rows(
        self, tree: "VIPTree", matrix: "_np.ndarray"
    ) -> "_np.ndarray":
        """Dense exact rows for every non-access door.

        Reproduces ``VIPTree.door_to_door`` bit for bit, in its
        resolution order: boundary decomposition through the door's
        *first* leaf's access doors (identically-ordered additions,
        ``inf`` for missing entries), lowered by same-leaf local
        entries, then access-door columns overwritten with their exact
        row values, and a zero diagonal.
        """
        n_doors = matrix.shape[1]
        G = _np.full(
            (len(self.nonacc_row), n_doors), INFINITY, dtype=_np.float64
        )
        if not self.nonacc_row:
            return G
        # Group doors by first leaf: they share one pivot row set, so
        # each group's decomposition is a single (A, D, N) reduction.
        by_leaf: Dict[int, List[DoorId]] = {}
        for door in self.nonacc_row:
            by_leaf.setdefault(tree._door_leaf[door][0], []).append(door)
        for leaf_id, doors in by_leaf.items():
            rows_a = self.decomp_rows[doors[0]]
            if not rows_a.size:  # pragma: no cover - leaves have access
                continue
            out_rows = _np.fromiter(
                (self.nonacc_row[d] for d in doors),
                dtype=_np.intp,
                count=len(doors),
            )
            cols_a = _np.fromiter(
                (self.door_col[d] for d in doors),
                dtype=_np.intp,
                count=len(doors),
            )
            base = matrix[rows_a[:, None], cols_a]  # (A, D)
            pivot = matrix[rows_a]  # (A, N)
            G[out_rows] = (base[:, :, None] + pivot[:, None, :]).min(
                axis=0
            )
        # Same-leaf local entries lower the decomposition (the scalar
        # path consults ``local[leaf][(a, b)]`` in this key order).
        for local in tree.local.values():
            for (door_a, door_b), inside in local.items():
                row = self.nonacc_row.get(door_a)
                if row is None or door_b in self.access_row:
                    continue
                col = self.door_col.get(door_b)
                if col is not None and inside < G[row, col]:
                    G[row, col] = inside
        # Access targets resolve through the access door's own row —
        # exact, so it replaces (never exceeds) the decomposition.
        acc_cols = _np.fromiter(
            (self.door_col[d] for d in sorted(self.access_row)),
            dtype=_np.intp,
            count=len(self.access_row),
        )
        nonacc_cols = _np.fromiter(
            (self.door_col[d] for d in sorted(self.nonacc_row)),
            dtype=_np.intp,
            count=len(self.nonacc_row),
        )
        if acc_cols.size:
            G[:, acc_cols] = matrix[:, nonacc_cols].T
        G[_np.arange(len(nonacc_cols)), nonacc_cols] = 0.0
        return G

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def partition_cols(self, partition_id: PartitionId) -> "_np.ndarray":
        """Door column indices of one partition (cached)."""
        cols = self._part_cols.get(partition_id)
        if cols is None:
            doors = tuple(self.tree.venue.doors_of(partition_id))
            cols = _np.fromiter(
                (self.door_col[d] for d in doors),
                dtype=_np.int32,
                count=len(doors),
            )
            self._part_cols[partition_id] = cols
        return cols

    def door_cols(self, doors: Sequence[DoorId]) -> "_np.ndarray":
        """Dense column indices for a door sequence."""
        return _np.fromiter(
            (self.door_col[d] for d in doors),
            dtype=_np.intp,
            count=len(doors),
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def source_rows(self, doors: Sequence[DoorId]) -> "_np.ndarray":
        """``F`` row indices for source doors (raises when unindexed).

        Target doors need no such check — an unindexed target's column
        is all-``inf``, exactly the scalar ``row.get(b, inf)``.
        """
        rows = _np.empty(len(doors), dtype=_np.intp)
        door_row = self.door_row
        for i, door in enumerate(doors):
            row = door_row.get(door)
            if row is None:
                raise IndexError_(f"door {door} is not indexed")
            rows[i] = row
        return rows

    def imind_node(self, partition_id: PartitionId, node: "VIPNode") -> float:
        """``iMinD`` partition→node as one dense submatrix min (cached)."""
        key = (partition_id, node.node_id)
        best = self._node_min.get(key)
        if best is None:
            rows = self.node_rows[node.node_id]
            cols = self.partition_cols(partition_id)
            if rows.size and cols.size:
                best = float(self.R[rows[:, None], cols].min())
            else:
                best = INFINITY
            self._node_min[key] = best
        return best

    def partition_pair_min(
        self, a: PartitionId, b: PartitionId
    ) -> float:
        """Min door-pair distance between partitions ``a != b``.

        Exactly ``F[source_rows(doors(lo))[:, None],
        door_cols(doors(hi))].min()`` for the
        ordered pair ``lo < hi`` — the kernelized ``iMinD``
        partition-pair reduction, the same value whichever way round it
        is asked — read from ``a``'s :meth:`leaf_row` against ``b``'s
        leaf, so pairwise lookups and leaf expansions share one cache.
        """
        leaf = self.tree.leaf_of(b)
        return self.leaf_row(a, leaf)[self.leaf_layout(leaf).slot[b]]

    def exit_door_mins(
        self, source: PartitionId, target: PartitionId
    ) -> "_np.ndarray":
        """Per-exit-door min distance to any door of ``target`` (cached).

        Entry ``e`` is ``min_t d2d(exit_doors(source)[e],
        doors(target)[t])`` — an exact ``min`` over the same candidate
        set the scalar ``idist`` door loop enumerates.  Because IEEE-754
        addition is monotone, ``min_t fl(offset + d2d_et)`` equals
        ``fl(offset + min_t d2d_et)`` bit for bit, so reducing the
        door block once here and adding offsets later reproduces the
        scalar two-level loop exactly.  Empty door lists yield an
        all-``inf`` / zero-length vector.
        """
        key = (source, target)
        mins = self._exit_mins.get(key)
        if mins is None:
            rows = self.partition_rows(source)
            cols = self.partition_cols(target)
            if rows.size and cols.size:
                mins = self.F[rows[:, None], cols].min(axis=1)
            else:
                mins = _np.full(
                    rows.size, INFINITY, dtype=_np.float64
                )
            self._exit_mins[key] = mins
        return mins

    def exit_door_mins_list(
        self, source: PartitionId, target: PartitionId
    ) -> List[float]:
        """:meth:`exit_door_mins` as plain floats (cached alongside).

        The solver's per-dequeue lane works on 1-10 client groups where
        Python float adds beat numpy dispatch; the values are the same
        objects ``tolist`` produces from the cached vector.
        """
        key = (source, target)
        mins = self._exit_mins_list.get(key)
        if mins is None:
            mins = self.exit_door_mins(source, target).tolist()
            self._exit_mins_list[key] = mins
        return mins

    def partition_rows(self, partition_id: PartitionId) -> "_np.ndarray":
        """``F`` row indices of one partition's doors (cached)."""
        rows = self._part_rows.get(partition_id)
        if rows is None:
            doors = tuple(self.tree.venue.doors_of(partition_id))
            rows = self.source_rows(doors)
            self._part_rows[partition_id] = rows
        return rows

    def leaf_layout(self, leaf: "VIPNode") -> "LeafLayout":
        """Door layout of one leaf's partitions, in leaf order (cached)."""
        layout = self._leaf_layouts.get(leaf.node_id)
        if layout is None:
            layout = LeafLayout(self, leaf.partitions)
            self._leaf_layouts[leaf.node_id] = layout
        return layout

    def leaf_row(
        self, partition_id: PartitionId, leaf: "VIPNode"
    ) -> List[float]:
        """``iMinD(partition, q)`` for every partition ``q`` of ``leaf``.

        One numpy pass per ``(partition, leaf)``, cached as plain floats
        in leaf order (``0.0`` at the partition's own slot).  The
        pairwise ``iMinD`` reduces from the smaller id's side, and ``F``
        is not exactly symmetric on every venue (last-bit differences
        from the matrix build), so ``q > p`` reduces the forward block
        ``F[rows(p), cols(q)]`` and ``q < p`` the backward block
        ``F[rows(q), cols(p)]``: entry ``q`` is then a ``min`` over the
        same door-pair set whichever of ``p``, ``q`` asks, which ``min``
        makes exact.
        """
        key = (partition_id, leaf.node_id)
        row = self._leaf_rows.get(key)
        if row is not None:
            return row
        layout = self.leaf_layout(leaf)
        row = [INFINITY] * len(layout.partitions)
        if layout.starts:
            size = layout.cols.size
            fwd = bwd = _np.full(size, INFINITY, dtype=_np.float64)
            rows_p = self.partition_rows(partition_id)
            cols_p = self.partition_cols(partition_id)
            if rows_p.size:
                fwd = self.F[rows_p[:, None], layout.cols].min(axis=0)
            if cols_p.size:
                bwd = self.F[layout.rows[:, None], cols_p].min(axis=1)
            per_door = _np.where(layout.owner > partition_id, fwd, bwd)
            mins = _np.minimum.reduceat(per_door, layout.starts)
            for index, best in zip(layout.segments, mins.tolist()):
                row[index] = best
        own = layout.slot.get(partition_id)
        if own is not None:
            row[own] = 0.0
        self._leaf_rows[key] = row
        return row


class LeafLayout:
    """The doors of one leaf's partitions, concatenated in leaf order.

    ``rows`` / ``cols`` are the doors' ``F`` row and column indices,
    partition after partition, and ``owner`` the partition id of each
    door slot; ``counts`` is each partition's door count and ``slot``
    maps a partition id to its index in ``partitions``.  Partitions
    with doors own the segments starting at ``starts`` (their slots in
    ``partitions`` are ``segments``), the index list
    ``numpy.minimum.reduceat`` takes — a door-less partition has no
    segment, its ``iMinD`` stays ``inf``.
    """

    __slots__ = (
        "partitions", "slot", "counts", "rows", "cols", "owner",
        "segments", "starts",
    )

    def __init__(
        self, pack: KernelPack, partitions: Tuple[PartitionId, ...]
    ) -> None:
        self.partitions = partitions
        self.slot = {pid: index for index, pid in enumerate(partitions)}
        cols = [pack.partition_cols(pid) for pid in partitions]
        self.counts: List[int] = [len(c) for c in cols]
        self.cols = _np.concatenate(cols).astype(_np.intp)
        self.rows = _np.concatenate(
            [pack.partition_rows(pid) for pid in partitions]
        )
        self.owner = _np.repeat(
            _np.array(partitions, dtype=_np.int64), self.counts
        )
        self.segments: List[int] = []
        self.starts: List[int] = []
        start = 0
        for index, count in enumerate(self.counts):
            if count:
                self.segments.append(index)
                self.starts.append(start)
            start += count


class GroupArrays:
    """Array-laid per-group client state for the solver hot loop.

    Holds, aligned with the group's client list order:

    * ``offsets`` — ``(clients, exit_doors)`` intra-partition distances
      from each client to each exit door of the shared partition
      (dense float64; :meth:`offset_lists` mirrors it as plain floats
      for the solver's small-group lane);
    * ``mask`` — "still active" flags (Lemma 5.1 pruning flips entries
      to ``False``; the surviving rows are cached between prunes).

    ``mask`` is a plain Python list on purpose: the solver dequeues
    groups of a handful of clients, where list updates are cheaper than
    numpy constructor/dispatch overhead, and the dense work already
    happens against ``offsets`` and the pack's memoised reductions.
    """

    __slots__ = (
        "partition_id", "exit_doors", "mask",
        "_index_of", "_active_rows", "_active_list",
        "_offsets_nd", "_offset_lists",
    )

    def __init__(
        self,
        partition_id: PartitionId,
        exit_doors: Tuple[DoorId, ...],
        clients: Sequence[Client],
        offsets: "Union[_np.ndarray, List[List[float]]]",
        pruned: Sequence[int] = (),
    ) -> None:
        self.partition_id = partition_id
        self.exit_doors = exit_doors
        if isinstance(offsets, list):
            # Row lists from group_offset_rows: keep them as the
            # primary store; the ndarray materialises on demand.
            self._offsets_nd = None
            self._offset_lists = offsets
        else:
            self._offsets_nd = offsets
            self._offset_lists = None
        self.mask: List[bool] = [True] * len(clients)
        self._index_of = {
            client.client_id: index
            for index, client in enumerate(clients)
        }
        # Active-row cache: the mask scan repeats identically between
        # prunes, so the rows (and their plain-int mirror for record
        # building) are computed once and dropped on any mask change.
        self._active_rows: "_np.ndarray" = None
        self._active_list: List[int] = None
        for client_id in pruned:
            self.mark_pruned(client_id)

    def mark_pruned(self, client_id: int) -> None:
        """Flip one client's active-mask entry (O(1))."""
        index = self._index_of.get(client_id)
        if index is not None and self.mask[index]:
            self.mask[index] = False
            self._active_rows = None
            self._active_list = None

    def active_rows(self) -> "_np.ndarray":
        """Row indices of still-active clients, in client-list order."""
        rows = self._active_rows
        if rows is None:
            active = self.active_list()
            rows = _np.fromiter(
                active, dtype=_np.intp, count=len(active)
            )
            self._active_rows = rows
        return rows

    def active_list(self) -> List[int]:
        """:meth:`active_rows` as plain ints (cached alongside it)."""
        out = self._active_list
        if out is None:
            mask = self.mask
            out = [index for index in range(len(mask)) if mask[index]]
            self._active_list = out
        return out

    @property
    def offsets(self) -> "_np.ndarray":
        """The dense offset matrix (materialised on demand).

        :meth:`compact` keeps only the plain-float row lists and drops
        the ndarray; it is rebuilt here the next time an array consumer
        (``idist_rows``, the public batch APIs) asks for it, so
        small-group solver runs that stay on :meth:`offset_lists`
        never pay the reconstruction.
        """
        nd = self._offsets_nd
        if nd is None:
            lists = self._offset_lists
            nd = _np.array(lists, dtype=_np.float64)
            if not lists:
                nd = nd.reshape(0, len(self.exit_doors))
            self._offsets_nd = nd
        return nd

    def offset_lists(self) -> List[List[float]]:
        """``offsets`` as row lists of plain floats (cached).

        Feeds the solver's small-group lane; :meth:`compact` slices
        these lists in place of the ndarray (pruning flips the mask,
        not the offsets, so prunes never invalidate them).
        """
        out = self._offset_lists
        if out is None:
            out = self._offsets_nd.tolist()
            self._offset_lists = out
        return out

    def compact(self, clients: Sequence[Client]) -> None:
        """Re-align the arrays after the group's lazy client compaction.

        ``clients`` is the group's already-filtered list; the surviving
        rows are exactly the mask's ``True`` entries, in order.
        """
        keep = self.active_list()
        lists = self.offset_lists()
        self._offset_lists = [lists[index] for index in keep]
        self._offsets_nd = None
        self.mask = [True] * len(keep)
        self._index_of = {
            client.client_id: index
            for index, client in enumerate(clients)
        }
        self._active_rows = None
        self._active_list = None


def build_pack(tree: "VIPTree") -> KernelPack:
    """Construct a :class:`KernelPack` under its contract span."""
    started = time.perf_counter()
    with _trace.span(
        "index.kernels.pack", access_rows=len(tree.rows)
    ) as pack_span:
        pack = KernelPack(tree)
        pack_span.set(doors=len(pack.door_col))
    _metrics.record(
        "index.kernels.pack.seconds", time.perf_counter() - started
    )
    return pack


def group_offset_rows(
    venue,
    partition_id: PartitionId,
    exit_doors: Tuple[DoorId, ...],
    door_locations: Dict[DoorId, object],
    clients: Sequence[Client],
) -> List[List[float]]:
    """``(clients, exit_doors)`` intra-partition offsets as row lists.

    Calls the exact same ``Partition.intra_distance`` the scalar path
    uses per retrieval, once per (client, door) pair per query.  Plain
    lists feed :class:`GroupArrays` directly: the solver dequeues
    mostly-tiny groups, so skipping the eager ndarray (and its
    element-wise fills) is a measurable win; the dense matrix
    materialises lazily from these rows when an array consumer asks.
    """
    partition = venue.partition(partition_id)
    locations = [door_locations[door] for door in exit_doors]
    return [
        [
            partition.intra_distance(client.location, location)
            for location in locations
        ]
        for client in clients
    ]


__all__: List[str] = [
    "ENV_FLAG",
    "GroupArrays",
    "KernelPack",
    "LeafLayout",
    "available",
    "build_pack",
    "default_enabled",
    "group_offset_rows",
]
