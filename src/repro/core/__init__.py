"""IFLS query algorithms: efficient approach, baseline, brute force."""

from .baseline import modified_minmax
from .bruteforce import (
    brute_force_maxsum,
    brute_force_mindist,
    brute_force_minmax,
)
from .dynamic import DynamicIFLSSession
from .efficient import (
    BOTTOM_UP,
    TOP_DOWN,
    EfficientOptions,
    FacilityStream,
    efficient_minmax,
)
from .maxsum import efficient_maxsum
from .moving import MovingClientSimulator, WALKING_SPEED
from .mindist import efficient_mindist
from .parallel import (
    IndexSnapshot,
    ParallelBatchOutcome,
    run_batch_parallel,
)
from .problem import IFLSProblem
from .request import QueryRequest, QueryResponse
from .queries import (
    BASELINE,
    BRUTE_FORCE,
    EFFICIENT,
    MAXSUM,
    MINDIST,
    MINMAX,
    IFLSEngine,
)
from .result import IFLSResult, ResultStatus
from .session import (
    QuerySession,
    SessionQueryRecord,
    SessionReport,
)
from .stream import (
    ClientEvent,
    ContinuousQuery,
    StreamAnswer,
    StreamStats,
    read_events,
    synthetic_events,
    write_events,
)
from .topk import RankedCandidate, TopKStats, top_k_ifls
from .stats import (
    QueryStats,
    distance_invariant_violations,
    merge_query_stats,
    merge_snapshots,
)

__all__ = [
    "BASELINE",
    "BOTTOM_UP",
    "BRUTE_FORCE",
    "ClientEvent",
    "ContinuousQuery",
    "StreamAnswer",
    "StreamStats",
    "read_events",
    "synthetic_events",
    "write_events",
    "DynamicIFLSSession",
    "QuerySession",
    "SessionQueryRecord",
    "SessionReport",
    "RankedCandidate",
    "TopKStats",
    "top_k_ifls",
    "EFFICIENT",
    "EfficientOptions",
    "FacilityStream",
    "IFLSEngine",
    "IFLSProblem",
    "IndexSnapshot",
    "ParallelBatchOutcome",
    "QueryRequest",
    "QueryResponse",
    "run_batch_parallel",
    "distance_invariant_violations",
    "merge_query_stats",
    "merge_snapshots",
    "MovingClientSimulator",
    "WALKING_SPEED",
    "IFLSResult",
    "MAXSUM",
    "MINDIST",
    "MINMAX",
    "QueryStats",
    "ResultStatus",
    "TOP_DOWN",
    "brute_force_maxsum",
    "brute_force_mindist",
    "brute_force_minmax",
    "efficient_maxsum",
    "efficient_mindist",
    "efficient_minmax",
    "modified_minmax",
]
