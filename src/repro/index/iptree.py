"""IP-tree distance index — the VIP-tree without the "vivid" matrices.

Shao et al. propose two indexes (paper §2.3): the **IP-tree**, whose
leaf nodes store distances from their doors to their *own* access doors
and whose non-leaf nodes store pairwise distances between their
children's access doors; and the **VIP-tree**, which additionally
stores leaf-door → *ancestor* access-door distances ("vivid" matrices)
to answer queries with O(1) lookups.

This module implements the IP-tree's query procedure: a door-to-door
distance is assembled by dynamic programming up the tree to the lowest
common ancestor —

    D0[a]   = leaf matrix [door, a]              for a in AD(leaf)
    Di+1[b] = min over a in AD(child): Di[a] + M_parent[a, b]

— which trades fewer stored matrix entries for more work per query.
``ifls backends`` and the ``matrix`` perf-gate suite reproduce that
trade-off, justifying the paper's use of the VIP variant.

The index is extracted from a built :class:`VIPTree` (same hierarchy,
same exact distances); only the hierarchical matrices are retained, so
its memory profile is authentic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import IndexError_
from ..indoor.entities import DoorId
from .node import NodeId
from .viptree import VIPTree

INFINITY = float("inf")


class IPTreeDistanceIndex:
    """Hierarchical (non-vivid) door-to-door distance index."""

    def __init__(self, tree: VIPTree) -> None:
        self.venue = tree.venue
        # Structure (shared, immutable): parents, depths, access doors.
        self._parent: Dict[NodeId, NodeId] = {}
        self._depth: Dict[NodeId, int] = {}
        self._access: Dict[NodeId, Tuple[DoorId, ...]] = {}
        for node in tree.nodes:
            if node.parent_id is not None:
                self._parent[node.node_id] = node.parent_id
            self._depth[node.node_id] = node.depth
            self._access[node.node_id] = node.access_doors
        self._leaf_of = {
            pid: tree.leaf_of(pid).node_id
            for pid in tree.venue.partition_ids()
        }
        self._door_leaf: Dict[DoorId, NodeId] = {}
        for leaf in tree.leaves():
            for door in leaf.doors:
                self._door_leaf.setdefault(door, leaf.node_id)

        # Matrices. Leaf: door -> own access doors, plus the local
        # (within-leaf) all-pairs matrix for same-leaf queries.
        self._leaf_matrix: Dict[
            NodeId, Dict[Tuple[DoorId, DoorId], float]
        ] = {}
        self._local = {
            node_id: dict(matrix) for node_id, matrix in tree.local.items()
        }
        for leaf in tree.leaves():
            matrix: Dict[Tuple[DoorId, DoorId], float] = {}
            for door in leaf.doors:
                for access in leaf.access_doors:
                    matrix[(door, access)] = tree.rows[access].get(
                        door, INFINITY
                    )
            self._leaf_matrix[leaf.node_id] = matrix

        # Non-leaf: pairwise distances between children's access doors.
        self._node_matrix: Dict[
            NodeId, Dict[Tuple[DoorId, DoorId], float]
        ] = {}
        for node in tree.nodes:
            if node.is_leaf:
                continue
            doors: List[DoorId] = sorted(
                {
                    access
                    for child_id in node.child_node_ids
                    for access in tree.node(child_id).access_doors
                }
            )
            matrix = {}
            for i, a in enumerate(doors):
                row = tree.rows[a]
                for b in doors[i:]:
                    matrix[(a, b)] = row.get(b, INFINITY)
            self._node_matrix[node.node_id] = matrix

    # ------------------------------------------------------------------
    def matrix_entry_count(self) -> int:
        """Stored entries — compare with ``VIPTree.matrix_entry_count``."""
        entries = sum(len(m) for m in self._leaf_matrix.values())
        entries += sum(len(m) for m in self._node_matrix.values())
        entries += sum(len(m) for m in self._local.values())
        return entries

    def _node_entry(
        self, node_id: NodeId, a: DoorId, b: DoorId
    ) -> float:
        if a == b:
            return 0.0
        matrix = self._node_matrix[node_id]
        value = matrix.get((a, b) if a <= b else (b, a))
        return INFINITY if value is None else value

    def _ancestors(self, leaf: NodeId, depth_limit: int) -> List[NodeId]:
        """Chain from ``leaf`` up to (excluding) depth ``depth_limit``."""
        chain = [leaf]
        while self._depth[chain[-1]] > depth_limit:
            chain.append(self._parent[chain[-1]])
        return chain

    def _climb(
        self, door: DoorId, chain: List[NodeId]
    ) -> Dict[DoorId, float]:
        """DP: distances from ``door`` to the access doors of the top
        node of ``chain`` (chain runs leaf -> ... -> top)."""
        leaf = chain[0]
        frontier: Dict[DoorId, float] = {}
        matrix = self._leaf_matrix[leaf]
        for access in self._access[leaf]:
            d = matrix.get((door, access), INFINITY)
            if d < INFINITY:
                frontier[access] = d
        for lower, upper in zip(chain, chain[1:]):
            next_frontier: Dict[DoorId, float] = {}
            for target in self._access[upper]:
                best = INFINITY
                for access, base in frontier.items():
                    step = self._node_entry(upper, access, target)
                    if base + step < best:
                        best = base + step
                if best < INFINITY:
                    next_frontier[target] = best
            frontier = next_frontier
        return frontier

    # ------------------------------------------------------------------
    def door_to_door(self, a: DoorId, b: DoorId) -> float:
        """Exact shortest indoor distance via hierarchical assembly."""
        if a == b:
            return 0.0
        leaf_a = self._door_leaf.get(a)
        leaf_b = self._door_leaf.get(b)
        if leaf_a is None or leaf_b is None:
            raise IndexError_(f"door {a if leaf_a is None else b} "
                              f"is not indexed")
        if leaf_a == leaf_b:
            best = self._local[leaf_a].get(
                (a, b), INFINITY
            )
            matrix = self._leaf_matrix[leaf_a]
            for access in self._access[leaf_a]:
                da = matrix.get((a, access), INFINITY)
                db = matrix.get((b, access), INFINITY)
                if da + db < best:
                    best = da + db
            return best

        # Lowest common ancestor by walking the deeper side up.
        node_a, node_b = leaf_a, leaf_b
        while node_a != node_b:
            if self._depth[node_a] >= self._depth[node_b]:
                node_a = self._parent[node_a]
            else:
                node_b = self._parent[node_b]
        lca = node_a

        chain_a = self._ancestors(leaf_a, self._depth[lca] + 1)
        chain_b = self._ancestors(leaf_b, self._depth[lca] + 1)
        up_a = self._climb(a, chain_a)
        up_b = self._climb(b, chain_b)
        best = INFINITY
        for access_a, da in up_a.items():
            for access_b, db in up_b.items():
                step = self._node_entry(lca, access_a, access_b)
                total = da + step + db
                if total < best:
                    best = total
        return best
