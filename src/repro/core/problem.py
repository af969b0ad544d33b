"""Problem definition shared by every IFLS algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.venue import IndoorVenue
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


def check_client_partitions(
    venue: IndoorVenue, clients: Iterable[Client]
) -> None:
    """Raise :class:`QueryError` naming the first client whose
    partition is not in ``venue`` (one O(1) lookup per client)."""
    known = venue.has_partition
    for client in clients:
        if not known(client.partition_id):
            raise QueryError(
                f"client {client.client_id} in unknown partition "
                f"{client.partition_id}"
            )


def check_query_inputs(
    venue: IndoorVenue,
    clients: Sequence[Client],
    facilities: FacilitySets,
) -> None:
    """The input rules every IFLS query obeys, checked against ``venue``.

    At least one client, a non-empty candidate set ``Fn``, facility and
    client partitions that exist in the venue, and unique client ids;
    :class:`QueryError` names the first rule broken.
    :class:`IFLSProblem` runs these rules on every query, and the query
    service runs them before a request joins a coalesced flush.
    """
    if not clients:
        raise QueryError("IFLS query requires at least one client")
    if not facilities.candidates:
        raise QueryError(
            "IFLS query requires a non-empty candidate set Fn"
        )
    bad = sorted(
        pid
        for pid in facilities.all_facilities
        if not venue.has_partition(pid)
    )
    if bad:
        raise QueryError(f"facility partitions not in venue: {bad[:5]!r}")
    check_unique_client_ids(clients)
    check_client_partitions(venue, clients)


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
        check_query_inputs(self.engine.venue, self.clients, self.facilities)
        for client in self.clients:
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
