"""Dynamic crowds: repeated IFLS answers over a changing client set.

The paper motivates IFLS with "dynamic crowd scenarios (e.g., changing
crowd), where the position a new facility needs to be updated
constantly" (Section 1) and names moving clients as future work
(Section 8).  :class:`DynamicIFLSSession` supports exactly that usage:

* the facility configuration ``Fe`` / ``Fn`` is fixed for the session;
* clients arrive, leave, and move between answers;
* every answer runs the efficient algorithm on the session's *warm*
  distance engine, so the partition-level distances computed for one
  crowd are reused for the next (the venue does not change);
* each client's nearest-existing-facility distance ``de(c)`` is cached
  per location, giving O(1) crowd health metrics
  (:meth:`worst_client_distance`) and exact candidate evaluation
  (:meth:`evaluate`) between answers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..index.search import FacilitySearch
from .efficient import EfficientOptions
from .problem import IFLSProblem
from .queries import EFFICIENT_SOLVERS, MINMAX, IFLSEngine
from .result import IFLSResult


class DynamicIFLSSession:
    """A long-lived IFLS query over a changing crowd."""

    def __init__(
        self,
        engine: IFLSEngine,
        facilities: FacilitySets,
        objective: str = MINMAX,
        options: Optional[EfficientOptions] = None,
    ) -> None:
        if objective not in EFFICIENT_SOLVERS:
            raise QueryError(f"unknown objective {objective!r}")
        if not facilities.candidates:
            raise QueryError("dynamic session requires candidates Fn")
        self.engine = engine
        self.facilities = facilities
        self.objective = objective
        self.options = options if options is not None else EfficientOptions()
        self._clients: Dict[int, Client] = {}
        self._de: Dict[int, float] = {}
        self._existing_search = FacilitySearch(
            engine.distances, facilities.existing
        )
        self.answers_computed = 0

    # ------------------------------------------------------------------
    # Crowd mutation
    # ------------------------------------------------------------------
    def add_client(self, client: Client) -> None:
        """Add (or replace) one client."""
        self._clients[client.client_id] = client
        self._de.pop(client.client_id, None)

    def add_clients(self, clients: Iterable[Client]) -> None:
        """Add several clients."""
        for client in clients:
            self.add_client(client)

    def remove_client(self, client_id: int) -> None:
        """Remove a client; unknown ids raise :class:`QueryError`."""
        if client_id not in self._clients:
            raise QueryError(f"unknown client {client_id}")
        del self._clients[client_id]
        self._de.pop(client_id, None)

    def move_client(self, client_id: int, moved: Client) -> None:
        """Move a client (same id, new location/partition)."""
        if client_id not in self._clients:
            raise QueryError(f"unknown client {client_id}")
        if moved.client_id != client_id:
            raise QueryError(
                f"moved client has id {moved.client_id}, "
                f"expected {client_id}"
            )
        self._clients[client_id] = moved
        self._de.pop(client_id, None)

    @property
    def client_count(self) -> int:
        """Number of clients currently in the crowd."""
        return len(self._clients)

    @property
    def clients(self) -> List[Client]:
        """Snapshot of the current crowd."""
        return list(self._clients.values())

    # ------------------------------------------------------------------
    # Cached crowd metrics
    # ------------------------------------------------------------------
    def nearest_existing_distance(self, client_id: int) -> float:
        """``de(c)``: cached distance to the nearest existing facility."""
        if client_id not in self._clients:
            raise QueryError(f"unknown client {client_id}")
        de = self._de.get(client_id)
        if de is None:
            client = self._clients[client_id]
            nearest = self._existing_search.nearest(client)
            de = float("inf") if nearest is None else nearest[1]
            self._de[client_id] = de
        return de

    def worst_client_distance(self) -> float:
        """Current objective without any new facility (max de)."""
        if not self._clients:
            raise QueryError("session has no clients")
        return max(
            self.nearest_existing_distance(cid) for cid in self._clients
        )

    def evaluate(self, candidate: PartitionId) -> float:
        """Exact MinMax objective of placing ``candidate`` for the
        current crowd (uses the cached ``de`` values)."""
        if candidate not in self.facilities.candidates:
            raise QueryError(f"{candidate} is not a candidate location")
        if not self._clients:
            raise QueryError("session has no clients")
        distances = self.engine.distances
        value = 0.0
        for client_id, client in self._clients.items():
            term = min(
                self.nearest_existing_distance(client_id),
                distances.idist(client, candidate),
            )
            if term > value:
                value = term
        return value

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(self) -> IFLSResult:
        """Answer the IFLS query for the current crowd.

        Runs the efficient algorithm on the session's warm distance
        engine — repeated answers over similar crowds reuse the
        memoised partition distances and are substantially cheaper than
        cold queries.
        """
        if not self._clients:
            raise QueryError("session has no clients")
        problem = IFLSProblem(
            self.engine.distances, self.clients, self.facilities
        )
        result = EFFICIENT_SOLVERS[self.objective](problem, self.options)
        self.answers_computed += 1
        return result
