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
    from .session import QuerySession

from ..errors import QueryError
from ..indoor.entities import Client, FacilitySets, PartitionId
from ..indoor.venue import IndoorVenue
from ..index.distance import VIPDistanceEngine
from ..index.viptree import VIPTree
from ..obs.explain import ExplainReport, explain_query
from .baseline import modified_minmax
from .bruteforce import (
    brute_force_maxsum,
    brute_force_mindist,
    brute_force_minmax,
)
from .efficient import EfficientOptions, efficient_minmax, measured_query
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

#: Each objective's exhaustive oracle (:mod:`repro.core.bruteforce`).
_ORACLES = {
    MINMAX: brute_force_minmax,
    MINDIST: brute_force_mindist,
    MAXSUM: brute_force_maxsum,
}


def _solve(
    problem: IFLSProblem,
    objective: str,
    algorithm: str,
    options: Optional[EfficientOptions],
) -> IFLSResult:
    """Answer a bound query with the named algorithm."""
    if algorithm == BRUTE_FORCE:
        oracle = _ORACLES[objective]
        return measured_query(
            BRUTE_FORCE, objective, problem, lambda _stats: oracle(problem)
        )
    if algorithm == BASELINE:
        return modified_minmax(problem)
    return EFFICIENT_SOLVERS[objective](problem, options)


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
            :class:`IFLSEngine`'s shared, warm one.  The baseline gets an
            engine with a memo budget of 0, which reuses nothing (the
            paper's baseline considers each client separately); used by
            the benchmark harness so measurements are independent and
            fair.

        Every algorithm answers through
        :func:`~repro.core.efficient.measured_query`, so
        ``result.stats`` carries the query's wall time and distance
        counter delta whichever solver ran.
        """
        problem = self._bind(clients, facilities, objective, algorithm, cold)
        return _solve(problem, objective, algorithm, options)

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
    ) -> ExplainReport:
        """Answer one query under the EXPLAIN profiler.

        Runs the query exactly like :meth:`query` but with a private
        tracer and a :class:`~repro.obs.profile.ProfileCollector`
        installed (:func:`~repro.obs.explain.explain_query`), and
        returns a structured :class:`~repro.obs.explain.ExplainReport`:
        per-phase wall time with exact counter attribution, the Lemma
        5.1 bound evolution, per-level VIP-tree visit counts, and the
        cache breakdown.  The result itself is discarded — re-run
        :meth:`query` for it; the report carries the
        answer/objective/status triple.

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
        if algorithm not in (EFFICIENT, BASELINE):
            raise QueryError(
                "explain supports the efficient and baseline "
                f"algorithms, not {algorithm!r}"
            )
        problem = self._bind(clients, facilities, objective, algorithm, cold)
        _result, report = explain_query(
            lambda: _solve(problem, objective, algorithm, options),
            problem.engine.stats,
            label=label,
            objective=objective,
            algorithm=algorithm,
            bound_limit=bound_limit,
        )
        return report

    def _bind(
        self,
        clients: Sequence[Client],
        facilities: FacilitySets,
        objective: str,
        algorithm: str,
        cold: bool,
    ) -> IFLSProblem:
        """Check a query's objective and algorithm, then bind its inputs
        to this engine's distances (a fresh engine when ``cold``)."""
        if objective not in OBJECTIVES:
            raise QueryError(f"unknown objective {objective!r}")
        if algorithm not in _ALGORITHMS:
            raise QueryError(f"unknown algorithm {algorithm!r}")
        if algorithm == BASELINE and objective != MINMAX:
            raise QueryError(
                "the modified MinMax baseline only supports the "
                "minmax objective (paper Section 4)"
            )
        distances = None
        if cold:
            distances = VIPDistanceEngine(
                self.tree,
                max_cache_entries=0 if algorithm == BASELINE else None,
                use_kernels=self.use_kernels,
            )
        return self.problem(clients, facilities, distances=distances)

    def session(
        self, max_cache_entries: Optional[int] = None
    ) -> "QuerySession":
        """Open a batch-execution session sharing this engine's tree.

        The session answers query sequences on its own persistent
        distance engine, keeping the ``iMinD`` caches warm across
        queries — see :mod:`repro.core.session`.
        """
        from .session import QuerySession

        return QuerySession(self, max_cache_entries=max_cache_entries)

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
