"""The query value: :class:`QueryRequest` / :class:`QueryResponse`.

:class:`QueryRequest` is the one per-query value every surface and
the batch executor take: the library API
(:meth:`repro.api.Engine.query` / :meth:`~repro.api.Engine.run`),
:meth:`QuerySession.run <repro.core.session.QuerySession.run>` and its
process-pool shards, the CLI, and the wire protocol of the query
service (:mod:`repro.service`).
:class:`QueryResponse` is the matching answer envelope.

Execution-scope knobs (cache budgets, worker counts, record keeping)
stay on the executors that own them — they describe *where* a query
runs, not *what* it asks.

Wire format
-----------
``QueryRequest.to_payload()`` / ``from_payload()`` round-trip through
plain JSON-compatible dictionaries.  Clients use the workload schema of
:mod:`repro.indoor.io` (``{"id", "location": [x, y, level],
"partition"}``); facility sets are sorted arrays of integer ids, and
nothing else decodes as one; the boolean fields (``prune_clients``,
``group_by_partition``, ``explain``) take JSON ``true``/``false``
only.  Decoding raises
:class:`~repro.errors.ProtocolError` on malformed payloads so the
service maps them to HTTP 400 without guessing; keys it does not know
are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ProtocolError, QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.geometry import Point
from .efficient import BOTTOM_UP, TOP_DOWN, EfficientOptions
from .problem import check_unique_client_ids
from .queries import MINMAX, OBJECTIVES
from .result import IFLSResult

_ALGORITHMS = ("efficient", "baseline", "bruteforce")

#: Payload schema tag; bump on incompatible wire changes.
WIRE_FORMAT = "ifls-query/1"


def _flag(payload: Dict[str, Any], name: str, default: bool) -> bool:
    """A boolean wire field: JSON ``true``/``false`` or absent.

    ``bool()`` would read ``"false"`` and ``"no"`` as true, so anything
    else is a :class:`ProtocolError`.
    """
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(
            f"{name} must be true or false, got {value!r}"
        )
    return value


def _facility_sets(payload: Dict[str, Any]) -> FacilitySets:
    """The ``existing`` / ``candidates`` wire fields: each a JSON array
    of integer ids, or absent.

    Iterating a string would read ``"12"`` as ids 1 and 2, and an
    object by its keys, so anything else, or a bool, float or string
    element, is a :class:`ProtocolError`; so are overlapping sets.
    """
    sets = []
    for name in ("existing", "candidates"):
        ids = payload.get(name, [])
        if not isinstance(ids, list):
            raise ProtocolError(
                f"{name} must be an array of integers, got "
                f"{type(ids).__name__}"
            )
        for item in ids:
            if type(item) is not int:
                raise ProtocolError(
                    f"{name} must hold integers only, got {item!r}"
                )
        sets.append(frozenset(ids))
    try:
        return FacilitySets(*sets)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


@dataclass(frozen=True)
class QueryRequest:
    """Everything one IFLS query asks for, in one place.

    ``prune_clients``, ``group_by_partition`` and ``traversal`` are
    the solver ablations of
    :class:`~repro.core.efficient.EfficientOptions` (see
    :meth:`options`).  Session/executor keywords (``max_cache_entries``,
    ``workers``, …) deliberately do **not** appear — they configure
    executors, not queries; nor does the kernel choice, which belongs
    to the engine.

    ``timeout_seconds`` is honoured by the query service (HTTP 504 when
    exceeded); library executors ignore it.  ``explain`` runs the
    query under the EXPLAIN profiler wherever a session answers it
    (``QuerySession.run`` on every worker count, the query
    service): the :class:`~repro.obs.explain.ExplainReport` comes back
    as ``result.explain``, and the service keeps it retrievable under
    ``GET /explain/<id>``.  :meth:`repro.api.Engine.query` and
    :meth:`repro.api.Engine.run` return responses, which carry no
    report; :meth:`repro.api.Engine.explain` explains one request.

    ``request_id`` is the correlation id telemetry stitches traces
    with: minted by the service per HTTP request (``r…``) or by
    :meth:`repro.api.Engine.query` for library callers (``q…``) when
    left empty, and echoed on the matching :class:`QueryResponse`.
    """

    clients: Tuple[Client, ...]
    facilities: FacilitySets
    objective: str = MINMAX
    algorithm: str = "efficient"
    label: str = ""
    prune_clients: bool = True
    group_by_partition: bool = True
    traversal: str = BOTTOM_UP
    timeout_seconds: Optional[float] = None
    explain: bool = False
    request_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        if self.objective not in OBJECTIVES:
            raise QueryError(f"unknown objective {self.objective!r}")
        if self.algorithm not in _ALGORITHMS:
            raise QueryError(f"unknown algorithm {self.algorithm!r}")
        if self.traversal not in (BOTTOM_UP, TOP_DOWN):
            raise QueryError(f"unknown traversal {self.traversal!r}")
        if self.timeout_seconds is not None and not (
            0 < self.timeout_seconds < math.inf
        ):
            raise QueryError(
                f"timeout_seconds must be positive and finite, got "
                f"{self.timeout_seconds}"
            )
        # Checked here as well as by the solvers so the service rejects
        # the request before it joins (and fails) a coalesced flush.
        check_unique_client_ids(self.clients)

    def options(self) -> Optional[EfficientOptions]:
        """The solver-level options this request resolves to.

        Returns ``None`` when every ablation field is at its default,
        so a fully-default request runs the solvers' own defaults.
        """
        if (
            self.prune_clients
            and self.group_by_partition
            and self.traversal == BOTTOM_UP
        ):
            return None
        return EfficientOptions(
            prune_clients=self.prune_clients,
            group_by_partition=self.group_by_partition,
            traversal=self.traversal,
        )

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible dictionary (the service wire format)."""
        payload: Dict[str, Any] = {
            "format": WIRE_FORMAT,
            "clients": [
                {
                    "id": c.client_id,
                    "location": [c.location.x, c.location.y,
                                 c.location.level],
                    "partition": c.partition_id,
                }
                for c in self.clients
            ],
            "existing": sorted(self.facilities.existing),
            "candidates": sorted(self.facilities.candidates),
            "objective": self.objective,
        }
        if self.algorithm != "efficient":
            payload["algorithm"] = self.algorithm
        if self.label:
            payload["label"] = self.label
        if not self.prune_clients:
            payload["prune_clients"] = False
        if not self.group_by_partition:
            payload["group_by_partition"] = False
        if self.traversal != BOTTOM_UP:
            payload["traversal"] = self.traversal
        if self.timeout_seconds is not None:
            payload["timeout_seconds"] = self.timeout_seconds
        if self.explain:
            payload["explain"] = True
        if self.request_id:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "QueryRequest":
        """Decode one wire payload; :class:`ProtocolError` on garbage."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"query payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            clients = tuple(
                Client(
                    int(entry["id"]),
                    Point(
                        float(entry["location"][0]),
                        float(entry["location"][1]),
                        int(entry["location"][2]),
                    ),
                    int(entry["partition"]),
                )
                for entry in payload.get("clients", ())
            )
            facilities = _facility_sets(payload)
            timeout = payload.get("timeout_seconds")
            return cls(
                clients=clients,
                facilities=facilities,
                objective=str(payload.get("objective", MINMAX)),
                algorithm=str(payload.get("algorithm", "efficient")),
                label=str(payload.get("label", "")),
                prune_clients=_flag(payload, "prune_clients", True),
                group_by_partition=_flag(
                    payload, "group_by_partition", True
                ),
                traversal=str(payload.get("traversal", BOTTOM_UP)),
                timeout_seconds=(
                    float(timeout) if timeout is not None else None
                ),
                explain=_flag(payload, "explain", False),
                request_id=str(payload.get("request_id", "")),
            )
        except QueryError as exc:
            # Validation failures are still protocol errors on the wire.
            raise ProtocolError(str(exc)) from exc
        except (
            KeyError, TypeError, ValueError, IndexError, OverflowError
        ) as exc:
            raise ProtocolError(
                f"malformed query payload: {exc}"
            ) from exc


@dataclass
class QueryResponse:
    """The answer envelope matching :class:`QueryRequest`.

    ``elapsed_seconds`` and ``distance_delta`` are the solver's own
    measurement of the query (its ``result.stats``), so a client
    summing the deltas of every response it received can telescope
    them against the service's ``/metrics`` ledger.
    """

    answer: Optional[PartitionId]
    objective_value: float
    status: str
    objective: str = MINMAX
    label: str = ""
    elapsed_seconds: float = 0.0
    index: Optional[int] = None
    explain_id: Optional[str] = None
    distance_delta: Dict[str, int] = field(default_factory=dict)
    request_id: str = ""

    @property
    def improved(self) -> bool:
        """True when a candidate strictly improved the objective."""
        return self.answer is not None

    @classmethod
    def from_result(
        cls,
        result: IFLSResult,
        request: Optional[QueryRequest] = None,
        index: Optional[int] = None,
        explain_id: Optional[str] = None,
    ) -> "QueryResponse":
        """Wrap a solver result (with its request's identity fields);
        time and counter deltas come from ``result.stats``."""
        return cls(
            answer=result.answer,
            objective_value=result.objective,
            status=str(result.status),
            objective=request.objective if request else MINMAX,
            label=request.label if request else "",
            elapsed_seconds=result.stats.elapsed_seconds,
            index=index,
            explain_id=explain_id,
            distance_delta=result.stats.distance.snapshot(),
            request_id=request.request_id if request else "",
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible dictionary (the service wire format)."""
        payload: Dict[str, Any] = {
            "answer": self.answer,
            "objective_value": self.objective_value,
            "status": self.status,
            "objective": self.objective,
        }
        if self.label:
            payload["label"] = self.label
        if self.elapsed_seconds:
            payload["elapsed_seconds"] = self.elapsed_seconds
        if self.index is not None:
            payload["index"] = self.index
        if self.explain_id is not None:
            payload["explain_id"] = self.explain_id
        if self.distance_delta:
            payload["distance_delta"] = dict(self.distance_delta)
        if self.request_id:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "QueryResponse":
        """Decode one wire payload; :class:`ProtocolError` on garbage."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"response payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            answer = payload["answer"]
            return cls(
                answer=int(answer) if answer is not None else None,
                objective_value=float(payload["objective_value"]),
                status=str(payload["status"]),
                objective=str(payload.get("objective", MINMAX)),
                label=str(payload.get("label", "")),
                elapsed_seconds=float(
                    payload.get("elapsed_seconds", 0.0)
                ),
                index=payload.get("index"),
                explain_id=payload.get("explain_id"),
                distance_delta={
                    str(key): int(value)
                    for key, value in payload.get(
                        "distance_delta", {}
                    ).items()
                },
                request_id=str(payload.get("request_id", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed response payload: {exc}"
            ) from exc

