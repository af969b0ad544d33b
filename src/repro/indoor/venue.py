"""The indoor venue: an immutable collection of partitions and doors.

A :class:`IndoorVenue` owns the topology (which doors belong to which
partitions) and exposes the adjacency queries every other layer builds
on: the door graph (`repro.indoor.doorgraph`), the exact distance
service (`repro.indoor.distance`) and the VIP-tree (`repro.index`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import DisconnectedVenueError, UnknownEntityError, VenueError
from .entities import Door, DoorId, Partition, PartitionId
from .geometry import Point, Rect


class IndoorVenue:
    """An indoor space made of partitions connected by doors.

    Instances are conceptually immutable after construction: all derived
    structures (adjacency lists, level index) are computed once in
    ``__init__``.  Use :class:`repro.indoor.builder.VenueBuilder` to
    assemble venues incrementally.
    """

    def __init__(
        self,
        partitions: Iterable[Partition],
        doors: Iterable[Door],
        name: str = "venue",
    ) -> None:
        self.name = name
        self._partitions: Dict[PartitionId, Partition] = {}
        for partition in partitions:
            if partition.partition_id in self._partitions:
                raise VenueError(
                    f"duplicate partition id {partition.partition_id}"
                )
            self._partitions[partition.partition_id] = partition

        self._doors: Dict[DoorId, Door] = {}
        self._partition_doors: Dict[PartitionId, List[DoorId]] = {
            pid: [] for pid in self._partitions
        }
        for door in doors:
            if door.door_id in self._doors:
                raise VenueError(f"duplicate door id {door.door_id}")
            for pid in door.partitions():
                if pid not in self._partitions:
                    raise VenueError(
                        f"door {door.door_id} references unknown "
                        f"partition {pid}"
                    )
                self._partition_doors[pid].append(door.door_id)
            self._doors[door.door_id] = door

        self._levels: Dict[int, List[PartitionId]] = {}
        for partition in self._partitions.values():
            self._levels.setdefault(partition.level, []).append(
                partition.partition_id
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def partition(self, partition_id: PartitionId) -> Partition:
        """Return a partition by id, raising on unknown ids."""
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise UnknownEntityError("partition", partition_id) from None

    def has_partition(self, partition_id: PartitionId) -> bool:
        """Whether ``partition_id`` names a partition of this venue."""
        return partition_id in self._partitions

    def door(self, door_id: DoorId) -> Door:
        """Return a door by id, raising on unknown ids."""
        try:
            return self._doors[door_id]
        except KeyError:
            raise UnknownEntityError("door", door_id) from None

    def doors_of(self, partition_id: PartitionId) -> Sequence[DoorId]:
        """Door ids belonging to a partition (order is insertion order)."""
        if partition_id not in self._partition_doors:
            raise UnknownEntityError("partition", partition_id)
        return tuple(self._partition_doors[partition_id])

    def partitions(self) -> Iterator[Partition]:
        """Iterate over all partitions."""
        return iter(self._partitions.values())

    def doors(self) -> Iterator[Door]:
        """Iterate over all doors."""
        return iter(self._doors.values())

    def partition_ids(self) -> Iterator[PartitionId]:
        """Iterate over all partition ids."""
        return iter(self._partitions.keys())

    def door_ids(self) -> Iterator[DoorId]:
        """Iterate over all door ids."""
        return iter(self._doors.keys())

    @property
    def partition_count(self) -> int:
        """Total number of partitions."""
        return len(self._partitions)

    @property
    def door_count(self) -> int:
        """Total number of doors."""
        return len(self._doors)

    @property
    def levels(self) -> Tuple[int, ...]:
        """Sorted floor numbers present in the venue."""
        return tuple(sorted(self._levels))

    def partitions_on_level(self, level: int) -> Sequence[PartitionId]:
        """Partition ids on one floor (empty for unknown levels)."""
        return tuple(self._levels.get(level, ()))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def neighbours(self, partition_id: PartitionId) -> Iterator[PartitionId]:
        """Partitions sharing at least one door with ``partition_id``."""
        seen = set()
        for door_id in self.doors_of(partition_id):
            other = self._doors[door_id].other_side(partition_id)
            if other is not None and other not in seen:
                seen.add(other)
                yield other

    def connecting_doors(
        self, a: PartitionId, b: PartitionId
    ) -> List[DoorId]:
        """All doors directly connecting partitions ``a`` and ``b``."""
        doors_b = set(self.doors_of(b))
        return [d for d in self.doors_of(a) if d in doors_b]

    def locate(self, point: Point) -> Optional[PartitionId]:
        """Find the partition containing ``point`` (linear scan).

        Used by workload generators and examples, never on the query hot
        path.  Returns ``None`` when the point is outside every
        partition.  When footprints overlap (e.g. a staircase sharing a
        wall) the partition with the smallest area wins, which picks the
        room over the enclosing hall.
        """
        best: Optional[Partition] = None
        for partition in self._partitions.values():
            if partition.contains(point):
                if best is None or partition.rect.area < best.rect.area:
                    best = partition
        return None if best is None else best.partition_id

    def bounding_rect(self, level: Optional[int] = None) -> Rect:
        """Bounding box of the venue (optionally of a single level)."""
        rects = [
            p.rect
            for p in self._partitions.values()
            if level is None or p.level == level
        ]
        if not rects:
            raise VenueError(f"no partitions on level {level!r}")
        out = rects[0]
        for rect in rects[1:]:
            out = out.union(rect)
        return out

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`VenueError` on failure.

        Checks: every partition has at least one door, door locations lie
        on their partitions, and the venue is door-connected (a single
        connected component), which the IFLS algorithms rely on.
        """
        for pid, door_ids in self._partition_doors.items():
            if not door_ids:
                raise VenueError(f"partition {pid} has no doors")
        for door in self._doors.values():
            for pid in door.partitions():
                partition = self._partitions[pid]
                if not partition.contains(door.location) and (
                    partition.rect.distance_to_point(door.location) > 1e-6
                ):
                    raise VenueError(
                        f"door {door.door_id} location {door.location} not "
                        f"on partition {pid}"
                    )
        self._check_connected()

    def _check_connected(self) -> None:
        if not self._partitions:
            raise VenueError("venue has no partitions")
        start = next(iter(self._partitions))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbour in self.neighbours(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        if len(seen) != len(self._partitions):
            missing = sorted(set(self._partitions) - seen)
            raise DisconnectedVenueError(
                f"venue is disconnected; unreachable partitions "
                f"(first 10): {missing[:10]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndoorVenue(name={self.name!r}, "
            f"partitions={self.partition_count}, doors={self.door_count}, "
            f"levels={len(self.levels)})"
        )
