"""Continuous IFLS: incremental answers over a client event stream.

The paper's dynamic-crowd story (:mod:`repro.core.dynamic`,
:mod:`repro.core.moving`) recomputes every answer from scratch.  This
module keeps the answer *current* while clients arrive, leave, and move
as an event stream, re-evaluating only the partition groups whose
Lemma 5.1 bound the event invalidates:

* every client's nearest-existing-facility distance ``de(c)`` is cached
  (computed once per location on the warm distance engine);
* clients are grouped by partition with a cached per-group
  ``max de(c)`` and a dirty flag — the same grouping the efficient
  solver's ``FacilityStream`` traverses, maintained across events;
* after an event, groups whose ``max de(c)`` does not exceed the
  current objective are **settled**: by Lemma 5.1 none of their clients
  can constrain the answer, so the solver only re-runs over the
  remaining groups (and a cheap per-event check often skips the solver
  entirely);
* a post-hoc verification (``objective >= max settled de``) makes the
  reduced answer *provably* equal to the from-scratch one — when it
  fails, the crowd is recomputed in full, never answered approximately.

The from-scratch oracle stays one flag away
(``ContinuousQuery(..., incremental=False)``) and the test suite
verifies bit-identical answers after every event of randomized
sequences.  See ``docs/STREAMING.md`` for the event model, the
invalidation rule, and a runnable cookbook.

Instrumentation (``docs/OBSERVABILITY.md``): each event runs under a
``stream.event`` span and moves the ``stream.events``,
``stream.groups.reevaluated``, ``stream.groups.skipped``, and
``stream.full_recomputes`` counters.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from ..errors import ProtocolError, QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.geometry import Point
from ..index.search import FacilitySearch
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .efficient import EfficientOptions, efficient_minmax
from .problem import IFLSProblem, check_client_partitions
from .queries import MINMAX, IFLSEngine
from .result import IFLSResult
from .session import QuerySession

__all__ = [
    "ADD",
    "MOVE",
    "REMOVE",
    "STREAM_FORMAT",
    "ClientEvent",
    "ContinuousQuery",
    "StreamAnswer",
    "StreamStats",
    "read_events",
    "synthetic_events",
    "write_events",
]

#: Event payload schema tag; bump on incompatible wire changes.
STREAM_FORMAT = "ifls-stream/1"

ADD = "add"
REMOVE = "remove"
MOVE = "move"

_KINDS = (ADD, REMOVE, MOVE)

#: How one event was answered.
MODE_SKIP = "skip"
MODE_PARTIAL = "partial"
MODE_FULL = "full"
MODE_EMPTY = "empty"

#: Status string of an answer over an empty crowd.
STATUS_EMPTY = "empty"


@dataclass(frozen=True)
class ClientEvent:
    """One step of a client stream: a client arrives, leaves, or moves.

    ``client`` carries the full client record for :data:`ADD` and
    :data:`MOVE` events (its ``client_id`` must equal ``client_id``);
    :data:`REMOVE` events carry the id only.
    """

    kind: str
    client_id: int
    client: Optional[Client] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise QueryError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{_KINDS}"
            )
        if self.kind == REMOVE:
            if self.client is not None:
                raise QueryError("remove events carry no client record")
        else:
            if self.client is None:
                raise QueryError(
                    f"{self.kind} events require a client record"
                )
            if self.client.client_id != self.client_id:
                raise QueryError(
                    f"{self.kind} event for client {self.client_id} "
                    f"carries a record with id {self.client.client_id}"
                )

    # -- constructors ---------------------------------------------------
    @classmethod
    def add(cls, client: Client) -> "ClientEvent":
        """A client arrives (or replaces one with the same id)."""
        return cls(ADD, client.client_id, client)

    @classmethod
    def remove(cls, client_id: int) -> "ClientEvent":
        """A client leaves."""
        return cls(REMOVE, client_id)

    @classmethod
    def move(cls, client: Client) -> "ClientEvent":
        """An existing client moves to a new location/partition."""
        return cls(MOVE, client.client_id, client)

    # -- wire codec -----------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible dictionary (one event-file/wire record)."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "id": self.client_id,
        }
        if self.client is not None:
            payload["location"] = [
                self.client.location.x,
                self.client.location.y,
                self.client.location.level,
            ]
            payload["partition"] = self.client.partition_id
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "ClientEvent":
        """Decode one wire record; :class:`ProtocolError` on garbage."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"event payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            kind = str(payload["kind"])
            client_id = int(payload["id"])
            client = None
            if kind != REMOVE:
                location = payload["location"]
                client = Client(
                    client_id,
                    Point(
                        float(location[0]),
                        float(location[1]),
                        int(location[2]),
                    ),
                    int(payload["partition"]),
                )
            return cls(kind, client_id, client)
        except QueryError as exc:
            raise ProtocolError(str(exc)) from exc
        except (
            KeyError, TypeError, ValueError, IndexError, OverflowError
        ) as exc:
            raise ProtocolError(
                f"malformed event payload: {exc}"
            ) from exc


def write_events(
    path: "os.PathLike[str]", events: Iterable[ClientEvent]
) -> int:
    """Write an event file (JSON lines); returns the event count."""
    count = 0
    with open(os.fspath(path), "w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_payload()))
            handle.write("\n")
            count += 1
    return count


def read_events(path: "os.PathLike[str]") -> List[ClientEvent]:
    """Read an event file written by :func:`write_events`."""
    events: List[ClientEvent] = []
    with open(os.fspath(path)) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise ProtocolError(
                    f"{path}:{number}: not JSON: {exc}"
                ) from exc
            events.append(ClientEvent.from_payload(payload))
    return events


@dataclass
class StreamStats:
    """Cumulative accounting of one continuous query.

    Mirrors the ``stream.*`` contract counters, kept locally so callers
    (and the perf-gate suite) read exact values without installing a
    metrics registry.
    """

    events: int = 0
    skips: int = 0
    partial_solves: int = 0
    full_recomputes: int = 0
    groups_reevaluated: int = 0
    groups_skipped: int = 0

    @property
    def reevaluation_ratio(self) -> float:
        """Groups re-evaluated per event (the bench suite's headline)."""
        if not self.events:
            return 0.0
        return self.groups_reevaluated / self.events


@dataclass
class StreamAnswer:
    """The IFLS answer as of one applied event.

    ``mode`` records how the event was answered: ``"skip"`` (the cached
    answer was proven unchanged without running the solver),
    ``"partial"`` (solver ran over the non-settled groups only),
    ``"full"`` (from-scratch recompute), or ``"empty"`` (no clients —
    there is nothing to answer).
    """

    answer: Optional[PartitionId]
    objective: float
    status: str
    event_index: int = 0
    mode: str = MODE_FULL
    groups_reevaluated: int = 0
    groups_skipped: int = 0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible dictionary (the service wire format)."""
        return {
            "answer": self.answer,
            "objective": self.objective,
            "status": self.status,
            "event_index": self.event_index,
            "mode": self.mode,
            "groups_reevaluated": self.groups_reevaluated,
            "groups_skipped": self.groups_skipped,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "StreamAnswer":
        """Decode one wire payload; :class:`ProtocolError` on garbage."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"stream answer payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            answer = payload["answer"]
            return cls(
                answer=int(answer) if answer is not None else None,
                objective=float(payload["objective"]),
                status=str(payload["status"]),
                event_index=int(payload.get("event_index", 0)),
                mode=str(payload.get("mode", MODE_FULL)),
                groups_reevaluated=int(
                    payload.get("groups_reevaluated", 0)
                ),
                groups_skipped=int(payload.get("groups_skipped", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed stream answer payload: {exc}"
            ) from exc


class ContinuousQuery:
    """A MinMax IFLS answer maintained incrementally over events.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.queries.IFLSEngine` whose warm distance
        engine answers the stream.  May be ``None`` when ``session`` is
        given (the session's engine is used).
    facilities:
        Fixed facility configuration ``Fe`` / ``Fn`` for the stream's
        lifetime (``Fn`` must be non-empty, as everywhere else).
    options:
        Solver ablations forwarded to every (partial or full) solve.
    incremental:
        ``True`` (default) answers through the three-tier incremental
        path; ``False`` is the from-scratch oracle — every event
        recomputes over the whole crowd.  Both modes return the same
        answers bit-for-bit; the oracle exists to prove it.
    session:
        Optional :class:`~repro.core.session.QuerySession`: solves then
        run through :meth:`QuerySession.query` (warm cross-query memo
        caches, session spans/records) instead of calling the solver
        directly on the engine's distance engine.

    The objective is MinMax only: the settled-group rule relies on
    Lemma 5.1 (``de(c)`` bounds a client's best possible term), which
    does not transfer to the additive MinDist/MaxSum extensions.
    """

    def __init__(
        self,
        engine: Optional[IFLSEngine] = None,
        facilities: Optional[FacilitySets] = None,
        *,
        objective: str = MINMAX,
        options: Optional[EfficientOptions] = None,
        incremental: bool = True,
        session: Optional[QuerySession] = None,
    ) -> None:
        if objective != MINMAX:
            raise QueryError(
                f"continuous queries answer the {MINMAX!r} objective "
                f"only (Lemma 5.1 invalidation), got {objective!r}"
            )
        if session is None and engine is None:
            raise QueryError(
                "ContinuousQuery needs an engine or a session"
            )
        if facilities is None or not facilities.candidates:
            raise QueryError(
                "continuous queries require candidates Fn"
            )
        self.engine = engine if engine is not None else session.engine
        self.facilities = facilities
        self.objective = objective
        self.options = options
        self.incremental = incremental
        self.session = session
        self._distances = (
            session.distances if session is not None
            else self.engine.distances
        )
        self._existing_search = FacilitySearch(
            self._distances, facilities.existing
        )
        self._clients: Dict[int, Client] = {}
        self._de: Dict[int, float] = {}
        self._members: Dict[PartitionId, Set[int]] = {}
        self._group_max: Dict[PartitionId, float] = {}
        self._dirty: Set[PartitionId] = set()
        self._result: Optional[IFLSResult] = None
        self._last: StreamAnswer = StreamAnswer(
            answer=None,
            objective=0.0,
            status=STATUS_EMPTY,
            event_index=0,
            mode=MODE_EMPTY,
        )
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def client_count(self) -> int:
        """Number of clients currently in the crowd."""
        return len(self._clients)

    @property
    def clients(self) -> List[Client]:
        """Snapshot of the current crowd (id order)."""
        return [
            self._clients[cid] for cid in sorted(self._clients)
        ]

    @property
    def group_count(self) -> int:
        """Number of occupied partition groups."""
        return len(self._members)

    def answer(self) -> StreamAnswer:
        """The current answer (as of the last applied event)."""
        return self._last

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(
        self, event: ClientEvent, request_id: str = ""
    ) -> StreamAnswer:
        """Apply one event and return the updated answer.

        Unknown ids on remove/move, and an add/move into a partition
        the venue does not have, raise :class:`QueryError` *before* any
        state changes, so a rejected event leaves the stream (and its
        counters) untouched.  ``request_id`` (when non-empty) tags
        the ``stream.event`` span, correlating the event with the HTTP
        request that delivered it.
        """
        self._validate(event)
        span_attrs = {
            "kind": event.kind,
            "incremental": self.incremental,
        }
        if request_id:
            span_attrs["request_id"] = request_id
        with _trace.span("stream.event", **span_attrs):
            _metrics.add("stream.events")
            self.stats.events += 1
            answer = self._apply(event)
        self._last = answer
        return answer

    def apply_batch(
        self, events: Sequence[ClientEvent], request_id: str = ""
    ) -> List[StreamAnswer]:
        """Apply events in order; one answer per event.

        An empty batch is a no-op returning ``[]``.  ``request_id``
        tags every event's span (see :meth:`apply`).
        """
        return [
            self.apply(event, request_id=request_id)
            for event in events
        ]

    def _validate(self, event: ClientEvent) -> None:
        if event.kind in (REMOVE, MOVE):
            if event.client_id not in self._clients:
                raise QueryError(f"unknown client {event.client_id}")
        if event.kind in (ADD, MOVE):
            check_client_partitions(self.engine.venue, (event.client,))

    def _apply(self, event: ClientEvent) -> StreamAnswer:
        skip = False
        if self.incremental and self._result is not None:
            skip = self._can_skip(event)
        self._mutate(event)
        groups = len(self._members)
        if skip:
            self.stats.skips += 1
            self.stats.groups_skipped += groups
            _metrics.add("stream.groups.skipped", groups)
            return self._answered(MODE_SKIP, 0, groups)
        if not self._clients:
            self._result = None
            return self._answered(MODE_EMPTY, 0, 0)
        if self.incremental and self._result is not None:
            partial = self._solve_partial()
            if partial is not None:
                return partial
        return self._solve_full()

    # ------------------------------------------------------------------
    # State maintenance
    # ------------------------------------------------------------------
    def _compute_de(self, client: Client) -> float:
        """``de(c)`` for an arbitrary record, bypassing the cache."""
        nearest = self._existing_search.nearest(client)
        return float("inf") if nearest is None else nearest[1]

    def _de_of(self, client: Client) -> float:
        """``de(c)``, cached per client id for its current location."""
        de = self._de.get(client.client_id)
        if de is None:
            de = self._compute_de(client)
            self._de[client.client_id] = de
        return de

    def _insert(self, client: Client) -> None:
        cid = client.client_id
        self._clients[cid] = client
        self._de.pop(cid, None)
        de = self._de_of(client)
        members = self._members.setdefault(client.partition_id, set())
        members.add(cid)
        if client.partition_id not in self._dirty:
            current = self._group_max.get(
                client.partition_id, float("-inf")
            )
            if de > current:
                self._group_max[client.partition_id] = de

    def _discard(self, cid: int) -> None:
        client = self._clients.pop(cid)
        de = self._de.pop(cid, None)
        partition = client.partition_id
        members = self._members[partition]
        members.discard(cid)
        if not members:
            del self._members[partition]
            self._group_max.pop(partition, None)
            self._dirty.discard(partition)
            return
        # Losing a (potential) group maximum invalidates the cache; it
        # is recomputed lazily the next time the group is classified.
        if de is None or de >= self._group_max.get(
            partition, float("inf")
        ):
            self._dirty.add(partition)

    def _group_max_de(self, partition: PartitionId) -> float:
        if partition in self._dirty:
            self._group_max[partition] = max(
                self._de_of(self._clients[cid])
                for cid in self._members[partition]
            )
            self._dirty.discard(partition)
        return self._group_max[partition]

    def _mutate(self, event: ClientEvent) -> None:
        if event.kind == REMOVE:
            self._discard(event.client_id)
            return
        assert event.client is not None
        if event.client_id in self._clients:
            self._discard(event.client_id)
        self._insert(event.client)

    # ------------------------------------------------------------------
    # Tier 1: the per-event skip check
    # ------------------------------------------------------------------
    def _can_skip(self, event: ClientEvent) -> bool:
        """Is the cached result provably unchanged by this event?

        * **add** of ``c``: every candidate's objective is a max over
          client terms, so adding a client whose best possible term
          ``min(de(c), idist(c, a*))`` does not exceed the cached
          objective changes no candidate's value that matters — the
          argmin (and its tie-break) survives.
        * **remove** of ``c``: when ``de(c)`` is *strictly* below the
          cached objective, ``c``'s term at every candidate is too, so
          ``c`` was never the max anywhere; dropping it changes no
          candidate's value (and the no-improvement worst distance is
          achieved by another client).
        * **move** / replacing **add**: a removal of the old record
          composed with an addition of the new one; the event skips
          only when both halves do.
        """
        assert self._result is not None
        if event.kind == ADD and event.client_id not in self._clients:
            return self._add_keeps(event.client)
        if event.kind == REMOVE:
            return self._remove_keeps(self._clients[event.client_id])
        # move, or an add replacing a live client
        return self._remove_keeps(
            self._clients[event.client_id]
        ) and self._add_keeps(event.client)

    def _add_keeps(self, client: Client) -> bool:
        # The cache is keyed by id and may still hold the *old* record
        # of a move/replace, so the new record's de is computed fresh
        # (the distance engine's memo absorbs the repeat at insert).
        assert self._result is not None and client is not None
        de = self._compute_de(client)
        bound = self._result.objective
        if self._result.answer is None:
            return de <= bound
        if de <= bound:
            return True
        return (
            self._distances.idist(client, self._result.answer)
            <= bound
        )

    def _remove_keeps(self, client: Client) -> bool:
        assert self._result is not None
        return self._de_of(client) < self._result.objective

    # ------------------------------------------------------------------
    # Tiers 2 and 3: reduced and full solves
    # ------------------------------------------------------------------
    def _solve_partial(self) -> Optional[StreamAnswer]:
        """Solve over non-settled groups; ``None`` when inconclusive.

        A group is **settled** when its ``max de(c)`` does not exceed
        the cached objective: by Lemma 5.1 none of its clients can
        constrain the answer *provided* the optimum has not dropped
        below their distances.  The reduced result proves that
        retroactively — it is exact iff its objective is at least the
        largest excluded ``de(c)``; otherwise the caller falls back to
        the full recompute.
        """
        assert self._result is not None
        bound = self._result.objective
        included: List[PartitionId] = []
        excluded_max = float("-inf")
        excluded = 0
        for partition in self._members:
            group_max = self._group_max_de(partition)
            if group_max <= bound:
                excluded += 1
                if group_max > excluded_max:
                    excluded_max = group_max
            else:
                included.append(partition)
        if not included or not excluded:
            # Nothing to reduce: all groups settled (the cached bound
            # no longer screens anything useful) or none are — either
            # way the honest account is a full recompute.
            return None
        kept = [
            self._clients[cid]
            for partition in included
            for cid in self._members[partition]
        ]
        result = self._solve(kept)
        if result.objective < excluded_max:
            # An excluded client's de exceeds the reduced optimum: the
            # exclusion was not conservative, so the answer is not
            # trustworthy.  Recompute from scratch.
            return None
        self._result = result
        self.stats.partial_solves += 1
        self.stats.groups_reevaluated += len(included)
        self.stats.groups_skipped += excluded
        _metrics.add("stream.groups.reevaluated", len(included))
        _metrics.add("stream.groups.skipped", excluded)
        return self._answered(MODE_PARTIAL, len(included), excluded)

    def _solve_full(self) -> StreamAnswer:
        groups = len(self._members)
        self._result = self._solve(list(self._clients.values()))
        self.stats.full_recomputes += 1
        self.stats.groups_reevaluated += groups
        _metrics.add("stream.full_recomputes")
        _metrics.add("stream.groups.reevaluated", groups)
        return self._answered(MODE_FULL, groups, 0)

    def _solve(self, clients: Sequence[Client]) -> IFLSResult:
        ordered = sorted(clients, key=lambda c: c.client_id)
        if self.session is not None:
            return self.session.query(
                ordered,
                self.facilities,
                objective=self.objective,
                options=self.options,
                label=f"stream#{self.stats.events}",
            )
        problem = IFLSProblem(
            self._distances, ordered, self.facilities
        )
        return efficient_minmax(problem, self.options)

    def _answered(
        self, mode: str, reevaluated: int, skipped: int
    ) -> StreamAnswer:
        if self._result is None:
            return StreamAnswer(
                answer=None,
                objective=0.0,
                status=STATUS_EMPTY,
                event_index=self.stats.events,
                mode=MODE_EMPTY,
            )
        return StreamAnswer(
            answer=self._result.answer,
            objective=self._result.objective,
            status=str(self._result.status),
            event_index=self.stats.events,
            mode=mode,
            groups_reevaluated=reevaluated,
            groups_skipped=skipped,
        )

    # ------------------------------------------------------------------
    # Oracle hooks (used by the bit-identity tests)
    # ------------------------------------------------------------------
    def recompute(self) -> StreamAnswer:
        """Force a from-scratch recompute of the current crowd.

        Does not count as an event; refreshes the cached result (and
        :meth:`answer`).  Mostly useful to re-anchor an oracle-mode
        instance, or in tests.
        """
        if not self._clients:
            self._result = None
            self._last = self._answered(MODE_EMPTY, 0, 0)
        else:
            groups = len(self._members)
            self._result = self._solve(list(self._clients.values()))
            self._last = self._answered(MODE_FULL, groups, 0)
        return self._last

    def result(self) -> Optional[IFLSResult]:
        """The cached solver result (``None`` over an empty crowd)."""
        return self._result


def synthetic_events(
    venue,
    *,
    initial: int,
    events: int,
    seed: int = 0,
    arrive: float = 0.2,
    depart: float = 0.1,
) -> List[ClientEvent]:
    """A deterministic synthetic event stream for ``venue``.

    The stream opens with ``initial`` add events (the base crowd), then
    ``events`` mixed events: with probability ``arrive`` a new client
    arrives, with probability ``depart`` a random client leaves, and
    otherwise a random client moves to a fresh uniform location — an
    arrivals-and-wandering crowd.  Ids are unique across the stream's
    lifetime; remove/move events always name live clients, so the
    stream replays cleanly from any empty :class:`ContinuousQuery`.
    """
    import random

    from ..datasets.workloads import uniform_clients

    if arrive < 0 or depart < 0 or arrive + depart > 1:
        raise QueryError(
            f"arrive/depart fractions must be non-negative and sum to "
            f"at most 1, got {arrive}/{depart}"
        )
    rng = random.Random(seed)

    def fresh(count: int) -> List[Client]:
        return uniform_clients(venue, count, rng)

    out: List[ClientEvent] = []
    live: List[int] = []
    next_id = 1

    def arrive_one() -> None:
        nonlocal next_id
        template = fresh(1)[0]
        client = Client(
            next_id, template.location, template.partition_id
        )
        out.append(ClientEvent.add(client))
        live.append(next_id)
        next_id += 1

    for _ in range(initial):
        arrive_one()
    for _ in range(events):
        roll = rng.random()
        if roll < arrive or not live:
            arrive_one()
        elif roll < arrive + depart and len(live) > 1:
            index = rng.randrange(len(live))
            cid = live.pop(index)
            out.append(ClientEvent.remove(cid))
        else:
            cid = live[rng.randrange(len(live))]
            template = fresh(1)[0]
            out.append(
                ClientEvent.move(
                    Client(
                        cid,
                        template.location,
                        template.partition_id,
                    )
                )
            )
    return out
