"""VIP-tree-backed indoor distance engine.

Implements the three distance primitives the IFLS algorithms consume
(paper Section 5.3.1), all resolved through the tree's matrices:

* ``iMinD(p, I)`` — shortest indoor distance between a partition ``p``
  (distance 0 to its own doors) and an indoor entity ``I`` (partition or
  VIP-tree node);
* ``iDist(c, p)`` — shortest indoor distance between a client and a
  partition, with the paper's single-door shortcut: when the client's
  partition has exactly one door, ``iMinD(c.p, p)`` is reused and only
  the client's offset to that door is added;
* ``minD(point, N)`` — lower bound from an exact point to a node, used
  by the top-down nearest-neighbour search of the baseline.

The engine memoises ``iMinD`` per partition pair *and* per
(partition, node) pair, plus door-pair distances, which is what makes
the paper's client-grouping pay off and what
:class:`~repro.core.session.QuerySession` keeps warm across a whole
query batch.  ``max_cache_entries`` bounds
the total number of memoised entries; the oldest entries are evicted
first (insertion order), so a long-lived session's memory stays flat.

Counter semantics (kept uniform with and without memo reuse so
baseline-vs-efficient comparisons in ``bench/`` are apples-to-apples):

* ``*_calls`` / ``*_lookups`` count every request, hit or miss;
* ``*_cache_hits`` count the requests served from a memo;
* ``distance_computations`` counts the requests actually resolved from
  the matrices, so ``calls == cache_hits + computations`` always holds
  (``tools/check_counters.py`` enforces this).

With ``use_kernels`` enabled (the default when numpy is importable,
see :mod:`repro.index.kernels`) the engine resolves the *inner door
loops* of ``imind_partitions`` / ``imind_node`` through dense-array
reductions, answers a client group's facility retrieval in one call
(:meth:`idist_group` over the clients' :meth:`exit_offsets`), and
bounds every facility of a VIP-tree leaf from one cached pack row
(:meth:`imind_leaf`).  Values are
bit-identical to the scalar path; counters stay ledger-consistent,
with bulk increments: a kernelised ``imind_partitions`` miss counts
its full door-pair block as ``d2d_lookups`` (no per-pair memo
traffic), every array reduction counts one ``kernel_batches``, and
:meth:`imind_leaf` counts each ``iMinD`` miss (one batch included)
exactly as the per-pair call would, although one row answered them
all.

The tree's door-to-door matrix is not exactly symmetric (CH, MZB and
CPH differ from the transpose in the last bits), so every distance is
read in one fixed direction whatever was asked before: the door-pair
memo is keyed on the ordered pair, and the partition-pair ``iMinD``
reduces from the smaller partition id's doors, as the pack does.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..indoor.entities import Client, PartitionId
from ..indoor.venue import IndoorVenue
from ..obs import metrics as _metrics
from . import kernels as _kernels
from .node import VIPNode
from .viptree import VIPTree

INFINITY = float("inf")

#: Active clients from which :meth:`VIPDistanceEngine.idist_group`
#: sums a multi-door group in one array reduction: below it, numpy's
#: per-call overhead costs more than Python float adds.
ARRAY_CLIENTS = 32

#: What :meth:`VIPDistanceEngine.cache_bytes` charges per memo entry:
#: every key is a two-int tuple and every value a float.
_ENTRY_BYTES = sys.getsizeof((0, 0)) + sys.getsizeof(0.0)


@dataclass
class DistanceStats:
    """Counters describing how hard the engine worked.

    ``distance_computations`` counts resolved partition/node distance
    requests (the paper's "number of indoor distance computations");
    cache hits are counted separately so pruning and warm-cache effects
    are visible.  The invariant
    ``imind_calls + imind_node_calls ==
    imind_cache_hits + imind_node_cache_hits + distance_computations``
    holds by construction, as does ``d2d_cache_hits <= d2d_lookups``.
    """

    distance_computations: int = 0
    d2d_lookups: int = 0
    d2d_cache_hits: int = 0
    imind_calls: int = 0
    imind_cache_hits: int = 0
    imind_node_calls: int = 0
    imind_node_cache_hits: int = 0
    idist_calls: int = 0
    single_door_shortcuts: int = 0
    cache_evictions: int = 0
    kernel_batches: int = 0

    def merge(self, other: "DistanceStats") -> None:
        """Accumulate another counter set into this one."""
        self.distance_computations += other.distance_computations
        self.d2d_lookups += other.d2d_lookups
        self.d2d_cache_hits += other.d2d_cache_hits
        self.imind_calls += other.imind_calls
        self.imind_cache_hits += other.imind_cache_hits
        self.imind_node_calls += other.imind_node_calls
        self.imind_node_cache_hits += other.imind_node_cache_hits
        self.idist_calls += other.idist_calls
        self.single_door_shortcuts += other.single_door_shortcuts
        self.cache_evictions += other.cache_evictions
        self.kernel_batches += other.kernel_batches

    @property
    def cache_hits(self) -> int:
        """All memo hits (door-pair, partition-pair, node bounds)."""
        return (
            self.d2d_cache_hits
            + self.imind_cache_hits
            + self.imind_node_cache_hits
        )

    def snapshot(self) -> Dict[str, int]:
        """Flat dict of the counters (for reports)."""
        return {
            "distance_computations": self.distance_computations,
            "d2d_lookups": self.d2d_lookups,
            "d2d_cache_hits": self.d2d_cache_hits,
            "imind_calls": self.imind_calls,
            "imind_cache_hits": self.imind_cache_hits,
            "imind_node_calls": self.imind_node_calls,
            "imind_node_cache_hits": self.imind_node_cache_hits,
            "idist_calls": self.idist_calls,
            "single_door_shortcuts": self.single_door_shortcuts,
            "cache_evictions": self.cache_evictions,
            "kernel_batches": self.kernel_batches,
        }


class VIPDistanceEngine:
    """Distance primitives over a :class:`VIPTree`.

    The engine memoises the partition-level distance reuse that the
    *efficient* IFLS algorithm contributes (Section 5.3.1): ``iMinD``
    per partition pair, per (partition, node) pair, and door-pair
    distances.  ``max_cache_entries`` caps the combined size of the
    three memo tables; ``None`` means unbounded.  Eviction is
    oldest-first from the largest table, counted in
    ``stats.cache_evictions``; the entry being stored is never its own
    victim.

    A budget of ``0`` switches memo reuse off: no memo is probed or
    stored, and every call recomputes from the index matrices.  The
    paper's baseline "considers each client separately", so it runs on
    such an engine — the *code paths* (including the single-door
    shortcut) are the same either way, only the memo reuse differs.

    ``use_kernels`` selects the dense-array fast paths of
    :mod:`repro.index.kernels` for the inner door loops and the
    solver's facility retrievals (:meth:`idist_group`); it is the one
    place that choice is made.  ``None`` (default) resolves to "numpy
    is importable and ``IFLS_USE_KERNELS`` is not off"; ``False`` is
    the scalar oracle path; ``True`` without numpy raises.
    """

    def __init__(
        self,
        tree: VIPTree,
        max_cache_entries: Optional[int] = None,
        use_kernels: Optional[bool] = None,
    ) -> None:
        if max_cache_entries is not None and max_cache_entries < 0:
            raise ValueError("max_cache_entries must be >= 0 or None")
        if use_kernels is None:
            use_kernels = _kernels.default_enabled()
        elif use_kernels and not _kernels.available():
            raise QueryError(
                "use_kernels=True requires numpy; leave it unset (or "
                "False) for the scalar path"
            )
        self.tree = tree
        self.venue: IndoorVenue = tree.venue
        self.max_cache_entries = max_cache_entries
        self._memo = max_cache_entries != 0
        self.use_kernels = bool(use_kernels)
        self._pack: Optional[_kernels.KernelPack] = (
            tree.kernels() if self.use_kernels else None
        )
        self.stats = DistanceStats()
        self._imind_pp: Dict[Tuple[PartitionId, PartitionId], float] = {}
        self._imind_node: Dict[Tuple[PartitionId, int], float] = {}
        self._d2d_cache: Dict[Tuple[int, int], float] = {}
        # Per-partition door metadata, resolved once (structural, not a
        # distance memo — kept in both modes and never evicted).
        self._doors_of: Dict[PartitionId, Tuple[int, ...]] = {}
        self._door_locations = {
            d.door_id: d.location for d in self.venue.doors()
        }

    def reset_stats(self) -> DistanceStats:
        """Return current stats and start a fresh counter set."""
        out = self.stats
        self.stats = DistanceStats()
        return out

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_sizes(self) -> Dict[str, int]:
        """Entry counts of the three memo tables."""
        return {
            "imind_pp": len(self._imind_pp),
            "imind_node": len(self._imind_node),
            "d2d": len(self._d2d_cache),
        }

    def cache_entries(self) -> int:
        """Total memoised entries across all tables."""
        return (
            len(self._imind_pp)
            + len(self._imind_node)
            + len(self._d2d_cache)
        )

    def cache_bytes(self) -> int:
        """Approximate memory held by the memo tables: each table's own
        size plus one two-int key tuple and one float per entry.

        Computed from the table sizes without walking the entries, so
        it is O(1) and safe to read while a solve grows the tables.  A
        float object that two tables share is charged once per entry.
        """
        tables = (self._imind_pp, self._imind_node, self._d2d_cache)
        return sum(sys.getsizeof(table) for table in tables) + (
            self.cache_entries() * _ENTRY_BYTES
        )

    def clear_caches(self) -> None:
        """Drop every memoised distance (venue-edit invalidation).

        With kernels enabled the tree's array pack is derived data of
        the same matrices, so it is invalidated and re-derived too.
        """
        self._imind_pp.clear()
        self._imind_node.clear()
        self._d2d_cache.clear()
        if self.use_kernels:
            self.tree.invalidate_kernels()
            self._pack = self.tree.kernels()

    def _store(self, cache: Dict, key, value: float) -> None:
        budget = self.max_cache_entries
        cache[key] = value
        if budget is None:
            return
        tables = (self._imind_pp, self._imind_node, self._d2d_cache)
        evicted = 0
        while self.cache_entries() > budget:
            victim = max(tables, key=len)
            oldest = next(iter(victim))
            if victim is cache and oldest == key:
                # Never evict the entry we are storing: with a tiny
                # budget the FIFO head of the largest table can be the
                # fresh key itself, and evicting it would thrash the
                # cache (hit counters never move).  Take the
                # next-oldest entry, or fall back to another table.
                if len(victim) > 1:
                    walker = iter(victim)
                    next(walker)
                    oldest = next(walker)
                else:
                    others = [
                        table
                        for table in tables
                        if table is not victim and table
                    ]
                    if not others:  # pragma: no cover - defensive
                        break
                    victim = max(others, key=len)
                    oldest = next(iter(victim))
            victim.pop(oldest)
            evicted += 1
        if evicted:
            self.stats.cache_evictions += evicted
            _metrics.add("cache.evictions", evicted)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _doors(self, partition_id: PartitionId) -> Tuple[int, ...]:
        doors = self._doors_of.get(partition_id)
        if doors is None:
            doors = tuple(self.venue.doors_of(partition_id))
            self._doors_of[partition_id] = doors
        return doors

    def door_to_door(self, a: int, b: int) -> float:
        """Door distance via the tree matrices (memoised if enabled).

        Memoised per ordered pair: ``(a, b)`` and ``(b, a)`` may differ
        in the last bits, and a memo hit must return what the matrices
        return.
        """
        self.stats.d2d_lookups += 1
        if not self._memo:
            return self.tree.door_to_door(a, b)
        key = (a, b)
        cached = self._d2d_cache.get(key)
        if cached is not None:
            self.stats.d2d_cache_hits += 1
            return cached
        dist = self.tree.door_to_door(a, b)
        self._store(self._d2d_cache, key, dist)
        return dist

    # ------------------------------------------------------------------
    # iMinD: partition <-> entity
    # ------------------------------------------------------------------
    def imind_partitions(self, a: PartitionId, b: PartitionId) -> float:
        """``iMinD`` between two partitions (0 when equal).

        Reduced over the door pairs read from the smaller id's doors,
        so ``(a, b)`` and ``(b, a)`` give the same bits.
        """
        if a == b:
            return 0.0
        self.stats.imind_calls += 1
        key = (a, b) if a <= b else (b, a)
        if self._memo:
            cached = self._imind_pp.get(key)
            if cached is not None:
                self.stats.imind_cache_hits += 1
                return cached
        self.stats.distance_computations += 1
        doors_lo = self._doors(key[0])
        doors_hi = self._doors(key[1])
        pack = self._pack
        if pack is not None:
            # Whole door-pair block in one reduction.  Every pair is
            # read from the packed matrices, so the full block counts
            # as lookups (same count as the scalar loop); the per-pair
            # memo is bypassed — the pp memo entry stored below is the
            # reuse unit.  The reduction itself is memoised on the pack
            # (static tree data), so cold engines pay it once per tree.
            self.stats.d2d_lookups += len(doors_lo) * len(doors_hi)
            self.stats.kernel_batches += 1
            best = pack.partition_pair_min(a, b)
        else:
            best = INFINITY
            for door_lo in doors_lo:
                for door_hi in doors_hi:
                    d = self.door_to_door(door_lo, door_hi)
                    if d < best:
                        best = d
        if self._memo:
            self._store(self._imind_pp, key, best)
        return best

    def imind_leaf(
        self,
        partition_id: PartitionId,
        leaf: VIPNode,
        facilities: Container[PartitionId],
    ) -> List[Tuple[PartitionId, float]]:
        """``(q, iMinD(partition, q))`` for the leaf's facilities.

        Covers every partition ``q`` of ``leaf`` that is in
        ``facilities`` and is not ``partition_id``, in leaf order —
        Algorithm 3's expansion of a popped leaf.  Memo traffic and
        every counter move exactly as one :meth:`imind_partitions` call
        per ``q`` would: the ``_imind_pp`` memo is probed, then stored,
        pair by pair (so a budget evicts in the same order), and a miss
        still counts one ``distance_computations``, its door-pair block
        as ``d2d_lookups`` and one ``kernel_batches``, although the
        pack answered the whole leaf with one cached reduction
        (:meth:`~repro.index.kernels.KernelPack.leaf_row`).  Without a
        pack this is that per-pair loop (the scalar oracle).
        """
        pack = self._pack
        if pack is None:
            return [
                (pid, self.imind_partitions(partition_id, pid))
                for pid in leaf.partitions
                if pid != partition_id and pid in facilities
            ]
        layout = pack.leaf_layout(leaf)
        bounds = pack.leaf_row(partition_id, leaf)
        memo = self._imind_pp if self._memo else None
        budget = self.max_cache_entries
        out: List[Tuple[PartitionId, float]] = []
        hits = misses = missed_doors = 0
        for index, pid in enumerate(layout.partitions):
            if pid == partition_id or pid not in facilities:
                continue
            key = (
                (partition_id, pid)
                if partition_id <= pid
                else (pid, partition_id)
            )
            if memo is not None:
                cached = memo.get(key)
                if cached is not None:
                    hits += 1
                    out.append((pid, cached))
                    continue
            best = bounds[index]
            misses += 1
            missed_doors += layout.counts[index]
            if memo is not None:
                if budget is None:
                    memo[key] = best
                else:
                    self._store(memo, key, best)
            out.append((pid, best))
        stats = self.stats
        stats.imind_calls += hits + misses
        stats.imind_cache_hits += hits
        stats.distance_computations += misses
        stats.d2d_lookups += len(self._doors(partition_id)) * missed_doors
        stats.kernel_batches += misses
        return out

    def imind_node(self, partition_id: PartitionId, node: VIPNode) -> float:
        """``iMinD`` from a partition to a VIP-tree node.

        0 when the node's subtree covers the partition; otherwise the
        best door→access-door matrix entry.  This is an exact lower
        bound for ``iDist(c, f)`` of any client ``c`` in the partition
        and any facility ``f`` inside the node.  Memoised per
        ``(partition, node)`` so traversals of later queries in a
        session reuse the bounds computed by earlier ones.
        """
        if self.tree.covers(node, partition_id):
            return 0.0
        self.stats.imind_node_calls += 1
        key = (partition_id, node.node_id)
        if self._memo:
            cached = self._imind_node.get(key)
            if cached is not None:
                self.stats.imind_node_cache_hits += 1
                return cached
        self.stats.distance_computations += 1
        pack = self._pack
        if pack is not None:
            # Dense submatrix min over (access rows x partition door
            # columns); like the scalar loop this reads the packed rows
            # directly and counts no d2d lookups.
            self.stats.kernel_batches += 1
            best = pack.imind_node(partition_id, node)
        else:
            best = INFINITY
            rows = self.tree.rows
            for access in node.access_doors:
                row = rows[access]
                for door_a in self._doors(partition_id):
                    d = row.get(door_a)
                    if d is not None and d < best:
                        best = d
        if self._memo:
            self._store(self._imind_node, key, best)
        return best

    # ------------------------------------------------------------------
    # iDist: client/point <-> partition
    # ------------------------------------------------------------------
    def idist(self, client: Client, target: PartitionId) -> float:
        """``iDist(c, p)``: exact client-to-partition indoor distance.

        Implements both cases of paper §5.3.1: the single-door shortcut
        reuses ``iMinD`` of the client's partition, the general case
        enumerates exit doors.  The shortcut depends only on the door
        count — an engine with or without memo reuse takes the same
        code path; memo reuse merely returns the cached ``iMinD``.
        """
        self.stats.idist_calls += 1
        source = client.partition_id
        if source == target:
            return 0.0
        partition = self.venue.partition(source)
        exit_doors = self._doors(source)
        if len(exit_doors) == 1:
            self.stats.single_door_shortcuts += 1
            door_location = self._door_locations[exit_doors[0]]
            offset = partition.intra_distance(client.location, door_location)
            return self.imind_partitions(source, target) + offset
        best = INFINITY
        target_doors = self._doors(target)
        for exit_id in exit_doors:
            offset = partition.intra_distance(
                client.location, self._door_locations[exit_id]
            )
            if offset >= best:
                continue
            for target_door in target_doors:
                total = offset + self.door_to_door(exit_id, target_door)
                if total < best:
                    best = total
        return best

    # ------------------------------------------------------------------
    # Kernel path: one client group per facility retrieval
    # ------------------------------------------------------------------
    @property
    def kernel_pack(self) -> Optional["_kernels.KernelPack"]:
        """The tree's dense-array pack, or ``None`` on the scalar path."""
        return self._pack

    def exit_offsets(
        self, partition_id: PartitionId, clients: Sequence[Client]
    ) -> List[List[float]]:
        """The clients' offsets to each exit door of their partition.

        One list per exit door, in door order, aligned with
        ``clients``: the paper's ``d(c, d_i)`` terms, the same
        ``Partition.intra_distance`` calls the scalar :meth:`idist`
        makes per retrieval.  A client group computes them once per
        query and hands its active clients' entries to
        :meth:`idist_group`.  Per door rather than per client, so a
        single-door group (most rooms) holds one flat list and a query
        allocates no list per client.
        """
        intra = self.venue.partition(partition_id).intra_distance
        locations = map(
            self._door_locations.__getitem__, self._doors(partition_id)
        )
        return [
            [intra(client.location, location) for client in clients]
            for location in locations
        ]

    def idist_group(
        self,
        partition_id: PartitionId,
        offsets: Sequence[Sequence[float]],
        target: PartitionId,
    ) -> List[float]:
        """``iDist`` to ``target`` for clients of one partition.

        ``offsets`` are the clients' :meth:`exit_offsets`: one list
        per exit door, or one ``(exit doors, clients)`` array, which
        spares the array reduction its conversion.  (A door-less
        partition has none: its clients reach no facility, so no
        retrieval asks.)  A single-exit-door
        partition takes the paper's shortcut, one ``iMinD`` plus each
        client's offset; any other adds each exit door's offsets to
        the pack's minimum from that door
        (:meth:`~repro.index.kernels.KernelPack.exit_door_mins`) and
        keeps each client's smallest sum, in one array reduction from
        ``ARRAY_CLIENTS`` clients up.  The values are the scalar
        :meth:`idist`'s bit for bit, and the counters advance as one
        scalar call per client would, with the ``iMinD`` ledger moved
        once, the exit x target door block counted once as
        ``d2d_lookups`` and one ``kernel_batches``.  Needs the pack.
        """
        n = len(offsets[0])
        stats = self.stats
        stats.idist_calls += n
        if n == 0:
            return []
        if partition_id == target:
            return [0.0] * n
        if len(offsets) == 1:
            stats.single_door_shortcuts += n
            base = self.imind_partitions(partition_id, target)
            stats.kernel_batches += 1
            return [base + offset for offset in offsets[0]]
        pairs = len(offsets) * len(self._doors(target))
        stats.d2d_lookups += pairs
        stats.kernel_batches += 1
        if not pairs:
            return [INFINITY] * n
        # min_t fl(offset + d2d_et) == fl(offset + min_t d2d_et): IEEE
        # addition is monotone, so adding the reduced minima keeps the
        # scalar door loop's bits.
        mins = self._pack.exit_door_mins(partition_id, target)
        if n >= ARRAY_CLIENTS:
            np = _kernels._np
            sums = np.asarray(offsets) + np.array(mins)[:, None]
            return sums.min(axis=0).tolist()
        return list(map(min, *(
            [offset + best for offset in column]
            for column, best in zip(offsets, mins)
        )))

    def point_min_dist_to_node(self, client: Client, node: VIPNode) -> float:
        """Lower bound from an exact client location to a node.

        Unlike :meth:`imind_node` this includes the client's offset to
        its partition's exit doors, so the bound is tight enough for
        top-down NN search (baseline algorithm).
        """
        source = client.partition_id
        if self.tree.covers(node, source):
            return 0.0
        partition = self.venue.partition(source)
        best = INFINITY
        rows = self.tree.rows
        offsets = [
            (
                partition.intra_distance(
                    client.location, self._door_locations[door_id]
                ),
                door_id,
            )
            for door_id in self._doors(source)
        ]
        for access in node.access_doors:
            row = rows[access]
            for offset, door_id in offsets:
                if offset >= best:
                    continue
                d = row.get(door_id)
                if d is not None and offset + d < best:
                    best = offset + d
        return best
