"""MinDist extension of the efficient approach (paper Section 7).

The optimisation target changes from the maximum to the *total* (=
average x |C|) distance of the clients to their nearest facility; the
traversal, the global distance ``Gd``, and the Lemma 5.1 client pruning
stay exactly as in the MinMax algorithm — the same driver,
:func:`repro.core.efficient.run_efficient`, runs them for
:class:`_MinDistState`.  What changes is how candidate answers are
generated and checked:

* every candidate keeps a running *total distance*, initialised as a
  lower bound and refined as facilities are retrieved;
* for a **settled** client (one whose nearest existing facility is
  within ``Gd``, i.e. a client the MinMax variant would prune) the term
  is exact: ``min(de, d(c, n))`` when ``d(c, n)`` was retrieved and
  ``de`` otherwise (anything unretrieved is farther than ``Gd >= de``);
* for an unsettled client the term is exact once ``d(c, n) <= Gd``
  (then ``d < de``) and otherwise lower-bounded by ``Gd``;
* a candidate whose lower bound exceeds the best exact total is pruned;
  the answer is declared when some candidate's exact total is no larger
  than every other candidate's lower bound.

Bookkeeping is incremental: per candidate we store only adjustments
relative to the shared ``sum(de)`` of settled clients, so one settle
event costs O(retrieved pairs of that client), not O(|Fn|).  A
histogram of alive candidates by exact-term count lets the answer check
return in O(1) while no alive candidate is exact yet; only then does it
scan (and prune) the alive set.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..errors import UnreachableFacilityError
from ..indoor.entities import PartitionId
from .efficient import (
    INFINITY,
    Decision,
    EfficientOptions,
    run_efficient,
)
from .problem import IFLSProblem
from .result import IFLSResult
from .stats import QueryStats


class _MinDistState:
    """Incremental candidate totals for the MinDist objective."""

    def __init__(self, problem: IFLSProblem) -> None:
        self.candidates: Set[PartitionId] = set(problem.candidates)
        self.alive: Set[PartitionId] = set(problem.candidates)
        self.unsettled = {c.client_id for c in problem.clients}
        self.settled_de: Dict[int, float] = {}
        self.settled_base = 0.0
        # Candidate n: settled-client correction vs settled_base.
        self.adj: Dict[PartitionId, float] = {}
        # Candidate n: exact unsettled terms (d <= Gd) sum and count.
        self.ex_sum: Dict[PartitionId, float] = {}
        self.ex_count: Dict[PartitionId, int] = {}
        # level[k]: alive candidates with ex_count == k.  A candidate is
        # exact when ex_count == |U|; none is while level[|U|] == 0.
        self.level: List[int] = [0] * (len(self.unsettled) + 1)
        self.level[0] = len(self.alive)
        # Per client: recorded candidate distances, exact-marked pairs.
        self.recorded: Dict[int, Dict[PartitionId, float]] = {}
        self.exact_pairs: Dict[int, Set[PartitionId]] = {}
        # Heaps driving settling and exactness promotion.
        self.settle_heap: List[Tuple[float, int]] = []
        self.promote_heap: List[Tuple[float, int, PartitionId]] = []
        # Settle events not yet propagated to the traversal groups.
        self.newly_settled: List[int] = []

    # -- event intake ----------------------------------------------------
    def record(
        self,
        facility: PartitionId,
        is_existing: bool,
        client_ids: List[int],
        dists: List[float],
    ) -> None:
        if is_existing:
            unsettled = self.unsettled
            for client_id, dist in zip(client_ids, dists):
                if client_id in unsettled:
                    heapq.heappush(self.settle_heap, (dist, client_id))
            return
        settled_de = self.settled_de
        for client_id, dist in zip(client_ids, dists):
            if client_id in settled_de:
                # Cannot happen with pruning on (client removed from
                # groups) but tolerated: fold directly into the
                # adjustment.
                de = settled_de[client_id]
                if dist < de and facility in self.alive:
                    self.adj[facility] = (
                        self.adj.get(facility, 0.0) + dist - de
                    )
                continue
            self.recorded.setdefault(client_id, {})[facility] = dist
            heapq.heappush(self.promote_heap, (dist, client_id, facility))

    def advance(self, gd: float) -> None:
        """Settle clients and promote pairs now proven exact (<= Gd)."""
        while self.promote_heap and self.promote_heap[0][0] <= gd:
            dist, client_id, facility = heapq.heappop(self.promote_heap)
            if client_id not in self.unsettled:
                continue  # handled by the settle path
            marks = self.exact_pairs.setdefault(client_id, set())
            if facility in marks or facility not in self.candidates:
                continue
            marks.add(facility)
            self.ex_sum[facility] = self.ex_sum.get(facility, 0.0) + dist
            count = self.ex_count.get(facility, 0)
            self.ex_count[facility] = count + 1
            if facility in self.alive:
                self.level[count] -= 1
                self.level[count + 1] += 1
        while self.settle_heap and self.settle_heap[0][0] <= gd:
            de, client_id = heapq.heappop(self.settle_heap)
            if client_id in self.unsettled:
                self._settle(client_id, de)

    def _settle(self, client_id: int, de: float) -> None:
        self.unsettled.discard(client_id)
        self.settled_de[client_id] = de
        self.settled_base += de
        self.newly_settled.append(client_id)
        marks = self.exact_pairs.pop(client_id, set())
        for facility, dist in self.recorded.pop(client_id, {}).items():
            if facility in marks:
                # Move from the unsettled-exact pool into the settled
                # adjustment (term value min(de, dist) stays exact).
                # An emptied pool is exactly 0: subtracting its terms
                # back out can leave rounding residue, which would make
                # a candidate that ties the existing total look better.
                count = self.ex_count[facility]
                self.ex_count[facility] = count - 1
                self.ex_sum[facility] = (
                    self.ex_sum[facility] - dist if count > 1 else 0.0
                )
                if facility in self.alive:
                    self.level[count] -= 1
                    self.level[count - 1] += 1
            term = dist if dist < de else de
            self.adj[facility] = (
                self.adj.get(facility, 0.0) + term - de
            )

    # -- answer check ----------------------------------------------------
    def check_answer(
        self, gd: float
    ) -> Optional[Tuple[PartitionId, float]]:
        """Prune dominated candidates; return the answer when decided.

        Candidate ``n``'s known part is ``settled_base + adj(n) +
        ex_sum(n)``; it is exact when all ``|U|`` unsettled terms are
        (``ex_count(n) == |U|``), and its lower bound adds ``Gd`` per
        unknown term.  Without an exact alive candidate there is no
        best total to prune against, so the check returns in O(1) from
        the histogram; otherwise one pass computes every alive
        candidate's known part and a second splits the competitors
        into dominated (pruned) and undecided.
        """
        unsettled = len(self.unsettled)
        if not self.level[unsettled]:
            return None
        base = self.settled_base
        adj = self.adj
        ex_sum = self.ex_sum
        ex_count = self.ex_count
        best_exact = INFINITY
        best_pid: Optional[PartitionId] = None
        known = []
        for facility in self.alive:
            total = base + adj.get(facility, 0.0) + ex_sum.get(facility, 0.0)
            unknown = unsettled - ex_count.get(facility, 0)
            known.append((facility, total, unknown))
            if unknown:
                continue
            if total < best_exact or (
                total == best_exact
                and best_pid is not None
                and facility < best_pid
            ):
                best_exact = total
                best_pid = facility
        if best_pid is None:
            return None
        dominated = []
        undecided = False
        for facility, total, unknown in known:
            if facility == best_pid:
                continue
            # avoid 0 * inf = nan
            if total + (unknown * gd if unknown else 0.0) > best_exact:
                dominated.append(facility)
            elif unknown:
                undecided = True
        for facility in dominated:
            self.alive.discard(facility)
            self.level[ex_count.get(facility, 0)] -= 1
        if undecided:
            return None
        # Every surviving competitor is exact; best_pid already minimal.
        return best_pid, best_exact


    # -- the driver's protocol -----------------------------------------
    def step(self, gd: float) -> Optional[Decision]:
        self.advance(gd)
        return self.check_answer(gd)

    def exhausted(self) -> Optional[Decision]:
        """Everything is retrieved: every term becomes exact."""
        return self.step(INFINITY)

    def split(self) -> Tuple[int, int]:
        return len(self.unsettled), len(self.settled_de)

    def closing_bound(self, exhausted: bool) -> Optional[float]:
        """The exhausted queue's final ``Gd``; none otherwise."""
        return INFINITY if exhausted else None

    def finish(
        self, decision: Optional[Decision], stats: QueryStats
    ) -> Decision:
        stats.candidate_answers_considered = len(self.alive)
        if decision is None:
            if self.unsettled:
                raise UnreachableFacilityError(
                    "some clients cannot reach any facility"
                )
            raise UnreachableFacilityError(
                "MinDist refinement failed to converge"
            )
        if not self.unsettled and decision[1] >= self.settled_base:
            return None, self.settled_base
        return decision


def efficient_mindist(
    problem: IFLSProblem,
    options: Optional[EfficientOptions] = None,
) -> IFLSResult:
    """Answer a MinDist IFLS query (total-distance objective)."""
    return run_efficient(
        "mindist", problem, options, lambda: _MinDistState(problem)
    )
