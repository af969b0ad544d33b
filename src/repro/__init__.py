"""repro — Indoor Facility Location Selection (IFLS) queries.

A from-scratch reproduction of "An Efficient Approach for Indoor
Facility Location Selection" (EDBT 2023): the indoor space model, the
VIP-tree index, the efficient IFLS algorithm, the modified-MinMax
baseline, the MinDist/MaxSum extensions, venue/workload generators for
the paper's four venues, and a benchmark harness regenerating every
figure of the paper's evaluation.

Quickstart::

    import repro
    from repro.datasets import figure1_venue

    venue, existing, candidates, clients, names = figure1_venue()
    engine = repro.open_venue(venue)
    request = repro.QueryRequest(
        clients=tuple(clients),
        facilities=repro.FacilitySets(existing, candidates),
    )
    response = engine.query(request)
    print(response.answer, response.objective_value)

:func:`open_venue` is the facade every surface shares — the library
API, the ``ifls`` CLI, and the HTTP query service
(:mod:`repro.service`) all speak the same
:class:`QueryRequest`/:class:`QueryResponse` pair, and every batch
executor (:class:`QuerySession`, :func:`run_batch_parallel`) takes
lists of :class:`QueryRequest`.  :class:`IFLSEngine` stays the
raw-result core engine under :class:`Engine`; see "Migrating to 3.0"
and "Migrating to 2.0" in ``docs/API.md`` for the names each removed.

Observability: wrap any of the above in :func:`repro.obs.observe` to
collect a span trace and a metrics snapshot (zero overhead when not
used) — see ``docs/OBSERVABILITY.md`` for the instrumentation
contract.
"""

from .api import BACKENDS, Engine, open_venue
from .core import (
    BASELINE,
    BOTTOM_UP,
    BRUTE_FORCE,
    EFFICIENT,
    MAXSUM,
    MINDIST,
    MINMAX,
    TOP_DOWN,
    ClientEvent,
    ContinuousQuery,
    EfficientOptions,
    IndexSnapshot,
    MovingClientSimulator,
    IFLSEngine,
    ParallelBatchOutcome,
    QueryRequest,
    QueryResponse,
    QuerySession,
    RankedCandidate,
    SessionQueryRecord,
    SessionReport,
    StreamAnswer,
    StreamStats,
    read_events,
    run_batch_parallel,
    synthetic_events,
    top_k_ifls,
    write_events,
    IFLSProblem,
    IFLSResult,
    QueryStats,
    ResultStatus,
)
from .errors import (
    DisconnectedVenueError,
    ParallelExecutionError,
    ProtocolError,
    QueryError,
    ReproError,
    RequestTimeout,
    ServiceError,
    UnreachableFacilityError,
    VenueError,
    http_status_for,
)
from .indoor import (
    Client,
    DistanceService,
    Door,
    DoorGraph,
    FacilitySets,
    IndoorVenue,
    Partition,
    PartitionKind,
    Point,
    Rect,
    VenueBuilder,
)
from .index import (
    FacilitySearch,
    PathService,
    Route,
    VIPDistanceEngine,
    VIPTree,
)
from .obs import (
    ExplainReport,
    MetricsRegistry,
    ProfileCollector,
    Tracer,
    observe,
)

__version__ = "4.0.0"

__all__ = [
    "BACKENDS",
    "BASELINE",
    "BOTTOM_UP",
    "BRUTE_FORCE",
    "Client",
    "ClientEvent",
    "ContinuousQuery",
    "DisconnectedVenueError",
    "DistanceService",
    "Door",
    "DoorGraph",
    "EFFICIENT",
    "EfficientOptions",
    "Engine",
    "ExplainReport",
    "FacilitySearch",
    "FacilitySets",
    "IFLSEngine",
    "IFLSProblem",
    "IFLSResult",
    "IndexSnapshot",
    "MovingClientSimulator",
    "IndoorVenue",
    "ParallelBatchOutcome",
    "ParallelExecutionError",
    "ProtocolError",
    "run_batch_parallel",
    "open_venue",
    "http_status_for",
    "MAXSUM",
    "MINDIST",
    "MINMAX",
    "MetricsRegistry",
    "Tracer",
    "observe",
    "PathService",
    "Partition",
    "RankedCandidate",
    "Route",
    "top_k_ifls",
    "PartitionKind",
    "Point",
    "ProfileCollector",
    "QueryError",
    "QueryRequest",
    "QueryResponse",
    "QuerySession",
    "QueryStats",
    "Rect",
    "RequestTimeout",
    "SessionQueryRecord",
    "SessionReport",
    "StreamAnswer",
    "StreamStats",
    "read_events",
    "synthetic_events",
    "write_events",
    "ReproError",
    "ResultStatus",
    "ServiceError",
    "TOP_DOWN",
    "UnreachableFacilityError",
    "VenueBuilder",
    "VenueError",
    "VIPDistanceEngine",
    "VIPTree",
    "__version__",
]
