"""High-level query facade.

:class:`IFLSEngine` wraps a venue with its VIP-tree and distance engine
and answers IFLS queries with any algorithm/objective combination.
This is the main entry point of the library::

    from repro import IFLSEngine, FacilitySets

    engine = IFLSEngine(venue)
    result = engine.query(clients, FacilitySets(existing, candidates))
    print(result.answer, result.objective)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.explain import ExplainReport
    from .session import QuerySession

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.venue import IndoorVenue
from ..index.distance import VIPDistanceEngine
from ..index.viptree import VIPTree
from .baseline import modified_minmax
from .bruteforce import (
    brute_force_maxsum,
    brute_force_mindist,
    brute_force_minmax,
)
from .efficient import EfficientOptions, efficient_minmax
from .maxsum import efficient_maxsum
from .mindist import efficient_mindist
from .problem import IFLSProblem
from .result import IFLSResult

MINMAX = "minmax"
MINDIST = "mindist"
MAXSUM = "maxsum"

#: The objective table: each objective's efficient solver.  Every
#: objective check and efficient dispatch in the library reads it.
EFFICIENT_SOLVERS = {
    MINMAX: efficient_minmax,
    MINDIST: efficient_mindist,
    MAXSUM: efficient_maxsum,
}
OBJECTIVES = tuple(EFFICIENT_SOLVERS)

EFFICIENT = "efficient"
BASELINE = "baseline"
BRUTE_FORCE = "bruteforce"

_ALGORITHMS = (EFFICIENT, BASELINE, BRUTE_FORCE)


class IFLSEngine:
    """A venue prepared for IFLS queries.

    Builds (or accepts) the VIP-tree once; queries share the tree and
    its memoised distances, mirroring the paper's setup where ``Fe`` is
    indexed offline and query parameters arrive at query time.
    """

    def __init__(
        self,
        venue: IndoorVenue,
        tree: Optional[VIPTree] = None,
        leaf_capacity: int = 8,
        fanout: int = 4,
        use_kernels: Optional[bool] = None,
    ) -> None:
        self.venue = venue
        self.tree = (
            tree
            if tree is not None
            else VIPTree(venue, leaf_capacity=leaf_capacity, fanout=fanout)
        )
        self.distances = VIPDistanceEngine(
            self.tree, use_kernels=use_kernels
        )

    @property
    def use_kernels(self) -> bool:
        """Whether this engine resolved to the array-kernel fast path.

        Set at construction (``use_kernels=None`` follows numpy
        availability and ``IFLS_USE_KERNELS``); cold queries, explains,
        and sessions created from this engine inherit the resolved
        value.
        """
        return self.distances.use_kernels

    def problem(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        distances: Optional[VIPDistanceEngine] = None,
    ) -> IFLSProblem:
        """Validate inputs and bind them to this engine."""
        engine = distances if distances is not None else self.distances
        return IFLSProblem(engine, list(clients), facilities)

    def query(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        objective: str = MINMAX,
        algorithm: str = EFFICIENT,
        options: Optional[EfficientOptions] = None,
        cold: bool = False,
    ) -> IFLSResult:
        """Answer one IFLS query.

        Parameters
        ----------
        objective:
            ``"minmax"`` (the paper's IFLS query), ``"mindist"``, or
            ``"maxsum"`` (Section 7 extensions).
        algorithm:
            ``"efficient"`` (Algorithms 2-3), ``"baseline"`` (modified
            MinMax, only for the minmax objective), or ``"bruteforce"``.
        options:
            Ablation switches for the efficient approach.
        cold:
            Run on a fresh distance engine instead of this
            :class:`IFLSEngine`'s shared, warm one.  The baseline gets a
            non-memoising engine (the paper's baseline considers each
            client separately); used by the benchmark harness so
            measurements are independent and fair.
        """
        if objective not in OBJECTIVES:
            raise QueryError(f"unknown objective {objective!r}")
        if algorithm not in _ALGORITHMS:
            raise QueryError(f"unknown algorithm {algorithm!r}")
        distances = None
        if cold:
            distances = VIPDistanceEngine(
                self.tree,
                memoize=algorithm != BASELINE,
                use_kernels=self.use_kernels,
            )
        problem = self.problem(clients, facilities, distances=distances)
        if algorithm == BRUTE_FORCE:
            dispatch = {
                MINMAX: brute_force_minmax,
                MINDIST: brute_force_mindist,
                MAXSUM: brute_force_maxsum,
            }
            return dispatch[objective](problem)
        if algorithm == BASELINE:
            if objective != MINMAX:
                raise QueryError(
                    "the modified MinMax baseline only supports the "
                    "minmax objective (paper Section 4)"
                )
            return modified_minmax(problem)
        return EFFICIENT_SOLVERS[objective](problem, options)

    def explain(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        objective: str = MINMAX,
        algorithm: str = EFFICIENT,
        options: Optional[EfficientOptions] = None,
        label: str = "",
        cold: bool = False,
        bound_limit: int = 512,
    ) -> "ExplainReport":
        """Answer one query under the EXPLAIN profiler.

        Runs the query exactly like :meth:`query` but with a private
        tracer and a :class:`~repro.obs.profile.ProfileCollector`
        installed, and returns a structured
        :class:`~repro.obs.explain.ExplainReport`: per-phase wall time
        with exact counter attribution, the Lemma 5.1 bound evolution,
        per-level VIP-tree visit counts, and the cache breakdown.  The
        result itself is discarded — re-run :meth:`query` for it; the
        report carries the answer/objective/status triple.

        ``algorithm`` accepts ``"efficient"`` and ``"baseline"`` (the
        brute-force oracle has no phase structure worth explaining).
        ``cold=True`` profiles on a fresh distance engine so repeated
        explains are reproducible; the default shares this engine's
        warm caches, like :meth:`query`.  ``bound_limit`` caps the
        recorded bound-evolution samples (the ends always survive).

        If a tracer is globally active (e.g. :func:`repro.obs.observe`)
        the profiled spans are absorbed into it afterwards, so EXPLAIN
        composes with ambient tracing.
        """
        from ..obs import profile as _profile
        from ..obs import trace as _trace
        from ..obs.explain import build_report
        from ..obs.profile import ProfileCollector
        from ..obs.trace import Tracer

        if objective not in OBJECTIVES:
            raise QueryError(f"unknown objective {objective!r}")
        if algorithm not in (EFFICIENT, BASELINE):
            raise QueryError(
                "explain supports the efficient and baseline "
                f"algorithms, not {algorithm!r}"
            )
        if algorithm == BASELINE and objective != MINMAX:
            raise QueryError(
                "the modified MinMax baseline only supports the "
                "minmax objective (paper Section 4)"
            )
        distances = self.distances
        if cold:
            distances = VIPDistanceEngine(
                self.tree,
                memoize=algorithm != BASELINE,
                use_kernels=self.use_kernels,
            )
        problem = self.problem(clients, facilities, distances=distances)
        collector = ProfileCollector(bound_limit=bound_limit)
        tracer = Tracer()
        outer = _trace.active()
        before = distances.stats.snapshot()
        with _trace.use(tracer), _profile.use(collector):
            with _trace.span(
                "explain.query",
                stats=distances.stats,
                objective=objective,
                algorithm=algorithm,
            ):
                if algorithm == BASELINE:
                    result = modified_minmax(problem)
                else:
                    result = EFFICIENT_SOLVERS[objective](
                        problem, options
                    )
        if outer is not None:
            outer.absorb(tracer.sorted_records())
        after = distances.stats.snapshot()
        totals = {
            key: value - before.get(key, 0)
            for key, value in after.items()
        }
        return build_report(
            tracer.sorted_records(),
            collector,
            totals,
            result,
            label=label,
            objective=objective,
            algorithm=algorithm,
        )

    def session(
        self,
        max_cache_entries: Optional[int] = None,
        keep_records: bool = True,
        explain: bool = False,
    ) -> "QuerySession":
        """Open a batch-execution session sharing this engine's tree.

        The session answers query sequences on its own persistent
        distance engine, keeping the ``iMinD`` caches warm across
        queries — see :mod:`repro.core.session`.  ``explain=True``
        additionally profiles every query into
        ``session.explain_reports``.
        """
        from .session import QuerySession

        return QuerySession(
            self,
            max_cache_entries=max_cache_entries,
            keep_records=keep_records,
            explain=explain,
        )

    # Convenience wrappers -------------------------------------------------
    def minmax(
        self,
        clients: Sequence[Client],
        existing: Iterable[PartitionId],
        candidates: Iterable[PartitionId],
        algorithm: str = EFFICIENT,
    ) -> IFLSResult:
        """Shorthand for the paper's IFLS query."""
        return self.query(
            clients,
            FacilitySets(frozenset(existing), frozenset(candidates)),
            objective=MINMAX,
            algorithm=algorithm,
        )
