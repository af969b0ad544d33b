"""Modified MinMax baseline (paper Algorithm 1, Section 4).

This adapts the road-network MinMax algorithm of Chen et al. (SIGMOD'14)
to indoor space exactly as the paper does:

1. compute the nearest *existing* facility of every client with the
   VIP-tree top-down NN search and sort clients by that distance,
   descending (list ``Ls``);
2. build the initial candidate answer set ``CA`` from the worst client:
   candidates strictly closer to it than its nearest existing facility;
3. refine ``CA`` client by client with the two pruning rules (3a: the
   candidate must be closer than the current client's existing NN; 3b:
   no previously considered client may be farther from the candidate
   than the current client's existing NN distance);
4. stop when ``CA`` shrinks to <= 1 or clients are exhausted, and pick
   the candidate minimising the maximum distance from the considered
   clients (falling back to the pre-emptying ``CA`` when it emptied).

The implementation keeps ``maxd(n)`` — the maximum distance of
candidate ``n`` from the clients considered so far — which makes rule
3b a single comparison per candidate.

The exact objective of the returned candidate is evaluated post hoc
over the not-yet-considered clients so results are comparable with the
brute-force oracle; queries whose optimum does not improve on the
existing facilities are normalised to ``NO_IMPROVEMENT``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..errors import UnreachableFacilityError
from ..indoor.entities import Client, PartitionId
from ..index.search import FacilitySearch
from ..obs import trace as _trace
from .efficient import measured_query
from .problem import IFLSProblem
from .result import IFLSResult, ResultStatus
from .stats import QueryStats

INFINITY = float("inf")


def modified_minmax(
    problem: IFLSProblem, measure_memory: bool = False
) -> IFLSResult:
    """Answer a MinMax IFLS query with the modified MinMax baseline."""
    return measured_query(
        "baseline",
        "minmax",
        problem,
        measure_memory,
        lambda stats: _run(problem, stats),
    )


def _run(problem: IFLSProblem, stats: QueryStats) -> IFLSResult:
    engine = problem.engine

    # Step 1: nearest existing facility for every client, sorted desc.
    with _trace.span("baseline.nearest_existing", stats=engine.stats):
        sorted_clients = _nearest_existing(problem, stats)
    first_dist = sorted_clients[0][0]
    if math.isinf(first_dist) and not problem.existing:
        # No existing facilities at all: every client's distance is inf,
        # so the optimum is the pure candidate 1-center.  The refinement
        # below handles it with thresholds of inf.
        pass
    elif math.isinf(first_dist):
        raise UnreachableFacilityError(
            "a client cannot reach any existing facility"
        )

    with _trace.span("baseline.refine", stats=engine.stats):
        # Step 2: initial candidate answer set from the worst client.
        candidate_search = FacilitySearch(engine, problem.candidates)
        worst_client = sorted_clients[0][1]
        maxd: Dict[PartitionId, float] = dict(
            (pid, dist)
            for pid, dist in candidate_search.within(
                worst_client, first_dist, strict=True
            )
        )
        stats.facilities_retrieved += len(maxd)
        considered = 1

        if not maxd:
            # No candidate improves the worst client: no improvement.
            return IFLSResult(
                answer=None,
                objective=_exact_objective(
                    problem, sorted_clients, None, 0
                ),
                status=ResultStatus.NO_IMPROVEMENT,
                stats=stats,
            )

        # Step 3: refinement, one client at a time, descending order.
        previous: Dict[PartitionId, float] = dict(maxd)
        while considered < len(sorted_clients) and len(maxd) > 1:
            previous = dict(maxd)
            threshold, client = sorted_clients[considered]
            considered += 1
            stats.iterations += 1
            refined: Dict[PartitionId, float] = {}
            for candidate, worst in maxd.items():
                d = engine.idist(client, candidate)
                if d >= threshold:  # pruning 3a
                    continue
                new_worst = worst if worst >= d else d
                if new_worst > threshold:  # pruning 3b
                    continue
                refined[candidate] = new_worst
            maxd = refined
            if not maxd:
                considered -= 1  # emptying client is not "considered"
                break

    # Step 5: Find_Ans.
    with _trace.span("baseline.finalize", stats=engine.stats):
        pool = maxd if maxd else previous
        stats.candidate_answers_considered = len(pool)
        answer = min(pool, key=lambda pid: (pool[pid], pid))
        objective = _exact_objective(
            problem, sorted_clients, answer, considered,
            known=pool[answer],
        )
        no_new = _exact_objective(problem, sorted_clients, None, 0)
    if objective >= no_new:
        return IFLSResult(
            answer=None,
            objective=no_new,
            status=ResultStatus.NO_IMPROVEMENT,
            stats=stats,
        )
    return IFLSResult(answer=answer, objective=objective, stats=stats)


def _nearest_existing(
    problem: IFLSProblem, stats: QueryStats
) -> List[Tuple[float, Client]]:
    """The sorted list ``Ls``: (distance to nearest existing, client)."""
    engine = problem.engine
    search = FacilitySearch(engine, problem.existing)
    entries: List[Tuple[float, Client]] = []
    for client in problem.clients:
        nearest = search.nearest(client)
        dist = INFINITY if nearest is None else nearest[1]
        entries.append((dist, client))
        stats.facilities_retrieved += 1
    entries.sort(key=lambda item: (-item[0], item[1].client_id))
    return entries


def _exact_objective(
    problem: IFLSProblem,
    sorted_clients: List[Tuple[float, Client]],
    answer: Optional[PartitionId],
    considered: int,
    known: float = -INFINITY,
) -> float:
    """Exact MinMax objective of placing ``answer`` (or nothing).

    ``known`` is the maximum distance of ``answer`` from the first
    ``considered`` clients (already computed during refinement); the
    remaining clients contribute ``min(de, iDist(c, answer))``.
    """
    engine = problem.engine
    value = known
    for de, client in sorted_clients[considered:]:
        if answer is None:
            term = de
        else:
            term = min(de, engine.idist(client, answer))
        if term > value:
            value = term
    if answer is None and considered:
        # Unreached branch in practice (answer None => considered == 0),
        # kept for safety.
        value = max(value, sorted_clients[0][0])
    return value

