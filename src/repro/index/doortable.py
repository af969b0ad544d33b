"""Door-to-door distance table (Yang et al., EDBT'10).

The oldest indoor distance index the paper cites (§2.3): run graph
traversal on the doors graph and *store all pairwise door distances in
a hash table*.  Queries are O(1); the price is O(doors^2) memory and an
all-pairs construction.  The VIP-tree exists precisely to avoid this
blow-up — ``ifls backends`` and the ``matrix`` perf-gate suite
reproduce the trade-off.

The class implements the same ``door_to_door`` / ``matrix_entry_count``
surface as :class:`~repro.index.viptree.VIPTree`, so the two can be
compared directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..indoor.doorgraph import DoorGraph
from ..indoor.entities import DoorId
from ..indoor.venue import IndoorVenue

INFINITY = float("inf")


class DoorTableIndex:
    """All-pairs door distances in a flat hash table."""

    def __init__(
        self, venue: IndoorVenue, graph: Optional[DoorGraph] = None
    ) -> None:
        self.venue = venue
        self.graph = graph if graph is not None else DoorGraph(venue)
        self._table: Dict[Tuple[DoorId, DoorId], float] = {}
        self._build()

    def _build(self) -> None:
        doors = sorted(self.venue.door_ids())
        for source in doors:
            for target, dist in self.graph.dijkstra(source).items():
                if source <= target:
                    self._table[(source, target)] = dist

    # ------------------------------------------------------------------
    def door_to_door(self, a: DoorId, b: DoorId) -> float:
        """O(1) lookup of the shortest indoor distance between doors."""
        if a == b:
            return 0.0
        key = (a, b) if a <= b else (b, a)
        return self._table.get(key, INFINITY)

    def matrix_entry_count(self) -> int:
        """Stored entries (for the memory comparison)."""
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DoorTableIndex(doors={self.venue.door_count}, "
            f"entries={len(self._table)})"
        )
