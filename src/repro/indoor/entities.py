"""Core indoor entities: partitions, doors, and clients.

The model follows the accessibility-graph view used by the paper (and by
Lu et al., ICDE'12): an indoor venue is a set of *partitions* (rooms,
corridors, staircases) connected by *doors*.  Movement is free inside a
partition and restricted to doors between partitions.

Facilities (existing facilities ``Fe`` and candidate locations ``Fn``)
are partitions, matching the paper's problem setting ("our problem
setting considers an existing facility or a candidate location as a
partition of the indoor space").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import QueryError
from .geometry import Point, Rect

PartitionId = int
DoorId = int
ClientId = int


class PartitionKind(enum.Enum):
    """Functional role of a partition.

    The IFLS algorithms never branch on the kind; it exists for dataset
    generation (e.g. category assignment skips corridors/stairs) and for
    the staircase traversal-cost override.
    """

    ROOM = "room"
    CORRIDOR = "corridor"
    STAIRCASE = "staircase"
    HALL = "hall"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Partition:
    """An indoor partition (room / corridor / staircase / hall).

    ``stair_length`` only applies to ``STAIRCASE`` partitions: it is the
    walking distance between any two of the staircase's doors, replacing
    the planar Euclidean distance (the doors are on different levels).
    """

    partition_id: PartitionId
    rect: Rect
    kind: PartitionKind = PartitionKind.ROOM
    name: str = ""
    category: Optional[str] = None
    stair_length: float = 0.0

    @property
    def level(self) -> int:
        """Floor this partition sits on."""
        return self.rect.level

    @property
    def center(self) -> Point:
        """Centre of the footprint."""
        return self.rect.center

    def intra_distance(self, a: Point, b: Point) -> float:
        """Walking distance between two points inside this partition.

        Free movement means Euclidean distance for planar partitions;
        staircases use their fixed ``stair_length`` when the two points
        sit on different levels (e.g. the bottom and top doors).
        """
        if self.kind is PartitionKind.STAIRCASE and a.level != b.level:
            return self.stair_length
        return a.planar_distance(b)

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies within this partition's footprint."""
        if self.kind is PartitionKind.STAIRCASE:
            # A staircase spans two levels; accept either endpoint level.
            if point.level not in (self.rect.level, self.rect.level + 1):
                return False
            flat = Point(point.x, point.y, self.rect.level)
            return self.rect.contains(flat)
        return self.rect.contains(point)


@dataclass(frozen=True)
class Door:
    """A door connecting two partitions (or a partition and the exterior).

    ``partition_a`` is always a valid partition id; ``partition_b`` is
    ``None`` for exterior doors (building entrances).  The door's
    ``location`` lies on the shared boundary; for stair doors the level
    of ``location`` is the level of the side it opens onto.
    """

    door_id: DoorId
    location: Point
    partition_a: PartitionId
    partition_b: Optional[PartitionId] = None
    name: str = ""

    def partitions(self) -> Tuple[PartitionId, ...]:
        """Ids of the partitions this door belongs to (1 or 2)."""
        if self.partition_b is None:
            return (self.partition_a,)
        return (self.partition_a, self.partition_b)

    def other_side(self, partition_id: PartitionId) -> Optional[PartitionId]:
        """The partition on the other side of the door, if any.

        Raises :class:`ValueError` when the door does not belong to
        ``partition_id`` at all — that is always a caller bug.
        """
        if partition_id == self.partition_a:
            return self.partition_b
        if partition_id == self.partition_b:
            return self.partition_a
        raise ValueError(
            f"door {self.door_id} does not belong to partition {partition_id}"
        )

    @property
    def is_exterior(self) -> bool:
        """True for building entrances (one-sided doors)."""
        return self.partition_b is None


@dataclass(frozen=True)
class Client:
    """A client (query object) at a fixed indoor location.

    ``partition_id`` is the partition containing ``location``; it is
    stored explicitly because the IFLS algorithms group clients by
    partition and never perform point-in-partition lookups on the hot
    path.
    """

    client_id: ClientId
    location: Point
    partition_id: PartitionId

    def __post_init__(self) -> None:
        # Every client is built here (library, wire decoders, streams),
        # so a NaN/Infinity coordinate never reaches a distance sum.
        location = self.location
        if not (math.isfinite(location.x) and math.isfinite(location.y)):
            raise QueryError(
                f"client {self.client_id} has a non-finite location "
                f"({location.x!r}, {location.y!r})"
            )


@dataclass
class FacilitySets:
    """The query's facility configuration: existing ``Fe``, candidate ``Fn``.

    Kept as ``frozenset`` so membership tests on the query hot path are
    O(1) and the sets are safe to share between algorithms.
    """

    existing: frozenset = field(default_factory=frozenset)
    candidates: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self.existing = frozenset(self.existing)
        self.candidates = frozenset(self.candidates)
        overlap = self.existing & self.candidates
        if overlap:
            raise ValueError(
                f"facility sets overlap on partitions {sorted(overlap)!r}; "
                "a partition cannot be both an existing facility and a "
                "candidate location"
            )

    @property
    def all_facilities(self) -> frozenset:
        """Union of existing facilities and candidate locations."""
        return self.existing | self.candidates
