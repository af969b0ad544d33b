"""Moving clients — the paper's future work (Section 8).

    "In future, we plan to consider moving clients for IFLS queries."

:class:`MovingClientSimulator` animates clients along shortest indoor
routes (via :class:`~repro.index.path.PathService`) and keeps the
current crowd as a ``{client_id: Client}`` map, so the IFLS answer can
be re-evaluated at any simulation time.  Movement is straight-line
inside a partition and door-to-door between partitions — the same
model the distance functions assume.

This is an extension beyond the paper's evaluation; it reuses the
paper's machinery unchanged: every answer is one
:meth:`~repro.core.queries.IFLSEngine.query` over the current crowd on
the engine's warm distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.geometry import Point
from ..index.path import PathService, Route
from .problem import check_client_partitions
from .queries import MINMAX, OBJECTIVES, IFLSEngine
from .result import IFLSResult

#: Default walking speed, metres per second.
WALKING_SPEED = 1.4


@dataclass
class _Walker:
    """A client in motion along a precomputed route."""

    client: Client
    route: Route
    destination: PartitionId
    speed: float
    leg_index: int = 0
    leg_progress: float = 0.0
    arrived: bool = field(init=False)

    def __post_init__(self) -> None:
        self.arrived = not self.route.legs

    def advance(self, seconds: float) -> Client:
        """Move along the route; returns the updated client."""
        budget = seconds * self.speed
        while budget > 0 and not self.arrived:
            leg = self.route.legs[self.leg_index]
            remaining = leg.distance - self.leg_progress
            if budget < remaining:
                self.leg_progress += budget
                budget = 0.0
            else:
                budget -= remaining
                self.leg_progress = 0.0
                self.leg_index += 1
                if self.leg_index >= len(self.route.legs):
                    self.arrived = True
        self.client = Client(
            self.client.client_id, self._position(), self._partition()
        )
        return self.client

    def _partition(self) -> PartitionId:
        if self.arrived:
            return self.destination
        return self.route.legs[self.leg_index].partition

    def _position(self) -> Point:
        if self.arrived:
            if self.route.legs:
                return self.route.legs[-1].end
            return self.client.location
        leg = self.route.legs[self.leg_index]
        if leg.distance <= 0:
            return leg.end
        fraction = min(self.leg_progress / leg.distance, 1.0)
        return Point(
            leg.start.x + fraction * (leg.end.x - leg.start.x),
            leg.start.y + fraction * (leg.end.y - leg.start.y),
            leg.start.level,
        )


class MovingClientSimulator:
    """IFLS over clients that walk through the venue."""

    def __init__(
        self,
        engine: IFLSEngine,
        facilities: FacilitySets,
        objective: str = MINMAX,
    ) -> None:
        if objective not in OBJECTIVES:
            raise QueryError(f"unknown objective {objective!r}")
        if not facilities.candidates:
            raise QueryError("moving-client simulation requires candidates Fn")
        self.engine = engine
        self.facilities = facilities
        self.objective = objective
        self.paths = PathService(engine.venue, graph=engine.tree.graph)
        self._crowd: Dict[int, Client] = {}
        self._walkers: Dict[int, _Walker] = {}
        self.clock = 0.0

    # ------------------------------------------------------------------
    def add_walker(
        self,
        client: Client,
        destination: PartitionId,
        speed: float = WALKING_SPEED,
    ) -> None:
        """Add (or replace) a client walking from its location to
        ``destination``."""
        if speed <= 0:
            raise QueryError("speed must be positive")
        check_client_partitions(self.engine.venue, [client])
        route = self.paths.route_to_partition(client, destination)
        self._walkers[client.client_id] = _Walker(
            client=client,
            route=route,
            destination=destination,
            speed=speed,
        )
        self._crowd[client.client_id] = client

    def add_stationary(self, client: Client) -> None:
        """Add (or replace) a client that does not move; a walker with
        the same id stops walking."""
        check_client_partitions(self.engine.venue, [client])
        self._walkers.pop(client.client_id, None)
        self._crowd[client.client_id] = client

    def remove(self, client_id: int) -> None:
        """Remove a client (walking or stationary)."""
        if client_id not in self._crowd:
            raise QueryError(f"unknown client {client_id}")
        self._walkers.pop(client_id, None)
        del self._crowd[client_id]

    # ------------------------------------------------------------------
    def step(self, seconds: float) -> int:
        """Advance the simulation; returns how many clients moved."""
        if seconds <= 0:
            raise QueryError("seconds must be positive")
        self.clock += seconds
        moved = 0
        for walker in self._walkers.values():
            if walker.arrived:
                continue
            updated = walker.advance(seconds)
            self._crowd[updated.client_id] = updated
            moved += 1
        return moved

    def answer(self) -> IFLSResult:
        """The IFLS answer for the crowd's current positions.

        One :meth:`IFLSEngine.query` on the engine's warm distances; an
        empty crowd raises :class:`QueryError`.
        """
        return self.engine.query(
            self.clients, self.facilities, objective=self.objective
        )

    # ------------------------------------------------------------------
    @property
    def clients(self) -> List[Client]:
        """Snapshot of the current crowd."""
        return list(self._crowd.values())

    @property
    def walker_count(self) -> int:
        """Clients added as walkers (arrived or not)."""
        return len(self._walkers)

    @property
    def client_count(self) -> int:
        """All clients in the crowd, walking or stationary."""
        return len(self._crowd)

    def en_route(self) -> int:
        """Clients still walking."""
        return sum(1 for w in self._walkers.values() if not w.arrived)

    def position_of(self, client_id: int) -> Optional[Client]:
        """Current Client record (walker or stationary), if known."""
        return self._crowd.get(client_id)
