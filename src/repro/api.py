"""The redesigned public facade: :func:`open_venue` and :class:`Engine`.

One call opens a venue for querying, whatever form the venue arrives
in, and every downstream consumer — library code, the ``ifls`` CLI, and
the HTTP query service — speaks the same
:class:`~repro.core.request.QueryRequest` /
:class:`~repro.core.request.QueryResponse` pair::

    import repro

    engine = repro.open_venue("CPH")          # or a venue.json path
    request = repro.QueryRequest(
        clients=clients,
        facilities=repro.FacilitySets(existing, candidates),
        objective="minmax",
    )
    response = engine.query(request)
    print(response.answer, response.objective_value)

:meth:`Engine.query` takes exactly one request, and :meth:`Engine.run`
and the session and parallel executors take lists of them: one query
value travels from the wire to the worker shard.  The raw-result core
engine (:class:`~repro.core.queries.IFLSEngine`) stays available as
:attr:`Engine.core`.  The names 2.0 and 3.0 removed, with their
replacements, are listed under "Migrating to 2.0" and "Migrating to
3.0" in ``docs/API.md``.

Backends
--------
``open_venue(..., backend=...)`` records which distance index answers
for this engine.  ``"viptree"`` (default) is the only backend that
implements the full IFLS algorithm suite; ``"iptree"`` and
``"doortable"`` are door-to-door-only research backends (kept
request-level so experiments à la "An Experimental Analysis of Indoor
Spatial Queries" can swap them without touching call sites) — opening
one gives an engine whose :meth:`Engine.door_to_door` uses it, while
IFLS queries still require ``"viptree"`` and say so loudly.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Union

from .core.queries import IFLSEngine
from .core.request import QueryRequest, QueryResponse
from .core.session import QuerySession
from .errors import QueryError, VenueError
from .indoor.entities import Client, FacilitySets
from .indoor.venue import IndoorVenue
from .obs import trace as _trace

#: Distance-index backends selectable at :func:`open_venue` time.
#: ``queries=True`` marks the backends able to answer IFLS queries.
BACKENDS: Dict[str, Dict[str, bool]] = {
    "viptree": {"queries": True},
    "iptree": {"queries": False},
    "doortable": {"queries": False},
}

VenueSource = Union[IndoorVenue, str, "os.PathLike[str]"]


def open_venue(
    source: VenueSource,
    *,
    backend: str = "viptree",
    use_kernels: Optional[bool] = None,
    leaf_capacity: int = 8,
    fanout: int = 4,
) -> "Engine":
    """Open a venue for IFLS querying and return its :class:`Engine`.

    ``source`` may be

    * an :class:`~repro.indoor.venue.IndoorVenue` instance,
    * a built-in venue name (``"MC"``, ``"CH"``, ``"CPH"``, ``"MZB"``,
      case-insensitive), or
    * a path to a venue JSON file written by
      :func:`repro.indoor.io.save_venue`.

    The VIP-tree is built once here; everything opened through the
    returned engine (sessions, streams, the service) shares it
    read-only.  ``use_kernels=None`` follows numpy availability and
    ``IFLS_USE_KERNELS`` as everywhere else.
    """
    if backend not in BACKENDS:
        raise QueryError(
            f"unknown backend {backend!r}; choose one of "
            f"{sorted(BACKENDS)}"
        )
    venue = _resolve_venue(source)
    core = IFLSEngine(
        venue,
        leaf_capacity=leaf_capacity,
        fanout=fanout,
        use_kernels=use_kernels,
    )
    return Engine(core, backend=backend)


def _resolve_venue(source: VenueSource) -> IndoorVenue:
    """Turn any accepted venue source into an :class:`IndoorVenue`."""
    if isinstance(source, IndoorVenue):
        return source
    from .datasets.venues import VENUE_NAMES, venue_by_name

    text = os.fspath(source)
    if text.upper() in VENUE_NAMES:
        return venue_by_name(text)
    if os.path.exists(text):
        from .indoor.io import load_venue

        return load_venue(text)
    raise VenueError(
        f"unknown venue {text!r}: not a built-in name "
        f"({', '.join(VENUE_NAMES)}) and no such file"
    )


class Engine:
    """A venue opened for querying — the unified request-in/response-out
    facade over :class:`~repro.core.queries.IFLSEngine`.

    Construct through :func:`open_venue` (or wrap an existing core
    engine).  All answering methods consume
    :class:`~repro.core.request.QueryRequest` and produce
    :class:`~repro.core.request.QueryResponse`; the wrapped core engine
    stays available as :attr:`core` for code that wants raw
    :class:`~repro.core.result.IFLSResult` objects.
    """

    def __init__(self, core: IFLSEngine, backend: str = "viptree") -> None:
        if backend not in BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r}; choose one of "
                f"{sorted(BACKENDS)}"
            )
        self.core = core
        self.backend = backend
        self._d2d_backends: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def venue(self) -> IndoorVenue:
        """The opened venue."""
        return self.core.venue

    @property
    def tree(self):
        """The shared VIP-tree."""
        return self.core.tree

    @property
    def use_kernels(self) -> bool:
        """Whether queries run on the array-kernel fast path."""
        return self.core.use_kernels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(venue={self.venue.name!r}, "
            f"backend={self.backend!r}, "
            f"use_kernels={self.use_kernels})"
        )

    def _require_query_backend(self) -> None:
        if not BACKENDS[self.backend]["queries"]:
            raise QueryError(
                f"backend {self.backend!r} answers door-to-door "
                "distances only; open the venue with "
                "backend='viptree' for IFLS queries"
            )

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one :class:`QueryRequest`.

        Anything other than a :class:`QueryRequest` raises
        :class:`QueryError`.  A request arriving without a
        ``request_id`` gets one minted here (``q…``), so library
        callers are correlated in telemetry just like service traffic;
        the id is echoed on the response.
        """
        if not isinstance(request, QueryRequest):
            raise QueryError(
                "Engine.query takes one QueryRequest, got "
                f"{type(request).__name__}"
            )
        self._require_query_backend()
        if not request.request_id:
            request = replace(
                request, request_id=_trace.next_request_id("q")
            )
        result = self.core.query(
            request.clients,
            request.facilities,
            objective=request.objective,
            algorithm=request.algorithm,
            options=request.options(),
        )
        return QueryResponse.from_result(result, request)

    def run(
        self,
        requests: Iterable[QueryRequest],
        workers: int = 1,
        max_cache_entries: Optional[int] = None,
    ) -> List[QueryResponse]:
        """Answer a request batch on a fresh warm session.

        ``requests`` may be any iterable, a generator included.
        ``workers > 1`` shards across a process pool exactly like
        ``QuerySession.run``; responses always follow submission order
        and carry per-query distance deltas.
        """
        self._require_query_backend()
        requests = list(requests)
        session = self.core.session(max_cache_entries=max_cache_entries)
        results = session.run(requests, workers=workers)
        return [
            QueryResponse.from_result(result, request, index=index)
            for index, (request, result) in enumerate(
                zip(requests, results)
            )
        ]

    def explain(self, request: QueryRequest, cold: bool = True):
        """Profile one request under the EXPLAIN profiler."""
        self._require_query_backend()
        return self.core.explain(
            request.clients,
            request.facilities,
            objective=request.objective,
            algorithm=request.algorithm,
            options=request.options(),
            label=request.label,
            cold=cold,
        )

    def stream(
        self,
        facilities: FacilitySets,
        *,
        incremental: bool = True,
        warm_session: bool = False,
        **kwargs,
    ):
        """Open a :class:`~repro.core.stream.ContinuousQuery`.

        The returned handle maintains the MinMax answer incrementally
        while :class:`~repro.core.stream.ClientEvent` records are
        applied; ``incremental=False`` is the from-scratch oracle that
        every event sequence is verified bit-identical against.
        ``warm_session=True`` routes the stream's solves through a
        dedicated warm :class:`QuerySession` (cross-event memo caches
        isolated from interactive queries on this engine).  Remaining
        keywords go to the :class:`ContinuousQuery` constructor.
        """
        from .core.stream import ContinuousQuery

        self._require_query_backend()
        session = self.core.session() if warm_session else None
        return ContinuousQuery(
            self.core,
            facilities,
            incremental=incremental,
            session=session,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Execution scopes
    # ------------------------------------------------------------------
    def session(self, **kwargs) -> QuerySession:
        """Open a warm batch session (see ``IFLSEngine.session``)."""
        return self.core.session(**kwargs)

    def serve(self, **kwargs):
        """Build an :class:`~repro.service.server.IFLSService` over
        this engine (does not start it)."""
        from .service.server import IFLSService

        return IFLSService(self, **kwargs)

    # ------------------------------------------------------------------
    # Backend-parameterised distances
    # ------------------------------------------------------------------
    def door_to_door(
        self, a: int, b: int, backend: Optional[str] = None
    ) -> float:
        """Indoor door-to-door distance under a chosen backend.

        ``backend=None`` uses the engine's opening backend.  Alternate
        backends are built lazily on first use and cached; answers are
        identical across backends (they index the same graph), only
        build/lookup cost differs.
        """
        name = backend or self.backend
        if name == "viptree":
            return self.core.distances.door_to_door(a, b)
        if name not in BACKENDS:
            raise QueryError(
                f"unknown backend {name!r}; choose one of "
                f"{sorted(BACKENDS)}"
            )
        index = self._d2d_backends.get(name)
        if index is None:
            if name == "iptree":
                from .index.iptree import IPTreeDistanceIndex

                index = IPTreeDistanceIndex(self.core.tree)
            else:
                from .index.doortable import DoorTableIndex

                index = DoorTableIndex(
                    self.venue, graph=self.core.tree.graph
                )
            self._d2d_backends[name] = index
        return index.door_to_door(a, b)


__all__ = [
    "BACKENDS",
    "Engine",
    "open_venue",
    "Client",
    "QueryRequest",
    "QueryResponse",
]
