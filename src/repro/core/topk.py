"""k-IFLS: return the k best candidate locations.

Most non-indoor location-selection work returns either one or k optimal
locations (paper Table 1's ``|Query Answer|`` column); the paper's IFLS
query returns one.  This module extends the library to top-k for all
three objectives with an exact branch-and-bound evaluator:

* each client's nearest-existing distance ``de(c)`` is computed once
  (VIP-tree NN search);
* candidates are evaluated in ascending order of their lower-bound
  distance from the *worst* client, so good candidates are seen early
  and the running k-th best value ``tau`` becomes tight quickly;
* a candidate's evaluation aborts as soon as its partial objective can
  no longer beat the k-th best entry (MinMax: the running max only
  grows; MinDist: the running sum only grows; MaxSum: remaining
  clients bound the achievable win count).

The result order is deterministic: objective value first, partition id
second.  The k-best heap is ordered the same way, and an evaluation
stops only once it loses to the k-th entry under that order, so a
candidate that ties the k-th value with a smaller id still enters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import QueryError
from ..index.search import FacilitySearch
from .problem import IFLSProblem
from .queries import MAXSUM, MINDIST, MINMAX, OBJECTIVES

INFINITY = float("inf")


@dataclass(frozen=True)
class RankedCandidate:
    """One entry of a top-k answer."""

    rank: int
    candidate: int
    objective: float


@dataclass
class TopKStats:
    """Work counters for the branch-and-bound evaluator."""

    candidates_evaluated: int = 0
    evaluations_aborted: int = 0
    client_terms_computed: int = 0


def _existing_distances(problem: IFLSProblem) -> List[float]:
    search = FacilitySearch(problem.engine, problem.existing)
    out = []
    for client in problem.clients:
        nearest = search.nearest(client)
        out.append(INFINITY if nearest is None else nearest[1])
    return out


def _ordered_candidates(
    problem: IFLSProblem, de: List[float]
) -> List[int]:
    """Candidates sorted by their bound from the worst client."""
    worst_index = max(range(len(de)), key=lambda i: (de[i], -i))
    worst = problem.clients[worst_index]
    engine = problem.engine
    keyed = [
        (engine.imind_partitions(worst.partition_id, candidate), candidate)
        for candidate in problem.candidates
    ]
    keyed.sort()
    return [candidate for _key, candidate in keyed]


def top_k_ifls(
    problem: IFLSProblem,
    k: int,
    objective: str = MINMAX,
) -> Tuple[List[RankedCandidate], TopKStats]:
    """Exact top-k candidates for the given objective.

    Returns at most ``min(k, |Fn|)`` entries, best first, with the
    evaluator's work counters.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if objective not in OBJECTIVES:
        raise QueryError(f"unknown objective {objective!r}")
    de = _existing_distances(problem)
    order = _ordered_candidates(problem, de)
    engine = problem.engine
    clients = problem.clients
    stats = TopKStats()

    # The current best k as a max-heap of negated ``(key, candidate)``
    # orders: the k-th best (the one to beat) is on top.
    heap: List[Tuple[float, int]] = []

    def kth() -> Tuple[float, float]:
        """``(key, candidate)`` a candidate must beat; open while the
        heap is not full."""
        if len(heap) < min(k, len(order)):
            return (INFINITY, INFINITY)
        return (-heap[0][0], -heap[0][1])

    values = {}
    for candidate in order:
        stats.candidates_evaluated += 1
        value = _evaluate(
            engine, clients, de, candidate, objective, kth(), stats
        )
        if value is None:
            stats.evaluations_aborted += 1
            continue
        values[candidate] = value
        entry = (-_sort_key(value, objective), -candidate)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)

    chosen = sorted((-neg, -candidate) for neg, candidate in heap)
    return (
        [
            RankedCandidate(
                rank=i + 1,
                candidate=candidate,
                objective=values[candidate],
            )
            for i, (_key, candidate) in enumerate(chosen)
        ],
        stats,
    )


def _sort_key(value: float, objective: str) -> float:
    """Smaller key = better candidate."""
    return -value if objective == MAXSUM else value


def _evaluate(engine, clients, de, candidate, objective, kth, stats):
    """Objective of ``candidate``; ``None`` once it loses to ``kth``.

    ``kth`` is the ``(key, candidate)`` order of the k-th best entry.
    Each objective keeps a lower bound on the candidate's final key,
    and the evaluation stops once ``(bound, candidate)`` exceeds
    ``kth``: the candidate can then neither beat nor tie-win it.
    """

    def loses(bound: float) -> bool:
        return (bound, candidate) > kth

    if objective == MINMAX:
        running = 0.0
        for i, client in enumerate(clients):
            stats.client_terms_computed += 1
            term = min(de[i], engine.idist(client, candidate))
            if term > running:
                running = term
                if loses(running):
                    return None
        return running
    if objective == MINDIST:
        running = 0.0
        for i, client in enumerate(clients):
            stats.client_terms_computed += 1
            running += min(de[i], engine.idist(client, candidate))
            if loses(running):
                return None
        return running
    # MAXSUM: abort when even winning all remaining clients loses.
    wins = 0
    remaining = len(clients)
    for i, client in enumerate(clients):
        stats.client_terms_computed += 1
        remaining -= 1
        if engine.idist(client, candidate) < de[i]:
            wins += 1
        if loses(-float(wins + remaining)):
            return None
    return float(wins)
