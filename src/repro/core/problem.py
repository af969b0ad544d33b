"""Problem definition shared by every IFLS algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..index.distance import VIPDistanceEngine


def check_unique_client_ids(clients: Iterable[Client]) -> None:
    """Raise :class:`QueryError` when two clients share an id.

    Every solver keys its per-client state by ``client_id``, so a
    repeated id would silently merge two clients into one.
    """
    seen = set()
    for client in clients:
        if client.client_id in seen:
            raise QueryError(f"duplicate client id {client.client_id}")
        seen.add(client.client_id)


@dataclass
class IFLSProblem:
    """One IFLS query instance: clients, facilities, and the distance engine.

    ``clients_by_partition`` is derived once — both the paper's grouping
    optimisation (Section 5) and the workload statistics rely on it.
    """

    engine: VIPDistanceEngine
    clients: Sequence[Client]
    facilities: FacilitySets
    clients_by_partition: Dict[PartitionId, List[Client]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.clients:
            raise QueryError("IFLS query requires at least one client")
        if not self.facilities.candidates:
            raise QueryError(
                "IFLS query requires a non-empty candidate set Fn"
            )
        venue_partitions = set(self.engine.venue.partition_ids())
        bad = self.facilities.all_facilities - venue_partitions
        if bad:
            raise QueryError(
                f"facility partitions not in venue: {sorted(bad)[:5]!r}"
            )
        check_unique_client_ids(self.clients)
        for client in self.clients:
            if client.partition_id not in venue_partitions:
                raise QueryError(
                    f"client {client.client_id} in unknown partition "
                    f"{client.partition_id}"
                )
            self.clients_by_partition.setdefault(
                client.partition_id, []
            ).append(client)

    @property
    def existing(self) -> frozenset:
        """The existing-facility set Fe."""
        return self.facilities.existing

    @property
    def candidates(self) -> frozenset:
        """The candidate-location set Fn."""
        return self.facilities.candidates
