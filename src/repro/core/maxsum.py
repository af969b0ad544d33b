"""MaxSum extension of the efficient approach (paper Section 7).

The objective becomes the number of clients for whom the new facility
would be strictly nearer than every existing facility.  The traversal
and the client settling rule are shared with MinMax/MinDist (one driver,
:func:`repro.core.efficient.run_efficient`, runs all three); candidate
refinement uses *upper bounds on the win count*, as sketched in the
paper ("the upper bound of the total count can be used to refine the
candidate answer set"):

* a **win** of candidate ``n`` on client ``c`` is determined when
  either both ``d(c, n)`` and ``de(c)`` are known, or ``d(c, n) <= Gd``
  while the client is unsettled (then ``d < de``), or the client is
  settled and ``n`` was never retrieved for it (then ``d > Gd >= de`` —
  a loss);
* the status of an unsettled client against an unretrieved candidate is
  open, so candidate ``n``'s upper bound is
  ``wins(n) + #unsettled clients without a determined win on n``;
* the answer is declared once some fully-determined candidate's count
  reaches every other candidate's upper bound.

Because that upper bound equals ``settled_wins(n) + |U|`` (wins on
settled clients plus every unsettled one), the answer check needs only
the candidate ranked first by ``(settled_wins, -id)``: it is the answer
exactly when it has a win on every unsettled client.  That leader is
kept current as settled wins are credited, so each check is O(1)
instead of a scan over ``Fn`` (docs/ALGORITHMS.md, Section 7).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

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


class _MaxSumState:
    """Incremental win counts and upper bounds for MaxSum.

    Retrieval events are absorbed in global distance order with
    existing-facility events breaking ties first (one heap), so the
    invariant "client unsettled while absorbing a candidate event at
    distance d implies de > d" holds — a tie ``d == de`` settles the
    client first and correctly does *not* count as a strict win.
    """

    _EXISTING = 0
    _CANDIDATE = 1

    def __init__(self, problem: IFLSProblem) -> None:
        self.candidates: Set[PartitionId] = set(problem.candidates)
        self.unsettled = {c.client_id for c in problem.clients}
        self.settled_de: Dict[int, float] = {}
        self.wins: Dict[PartitionId, int] = {}
        # Wins credited while the client was unsettled; the complement
        # (unsettled clients without a win on n) is the open-status set.
        self.unsettled_wins: Dict[PartitionId, int] = {}
        # Wins on settled clients (final) and the candidate ranked first
        # by (settled_wins, -id): the only possible answer.
        self.settled_wins: Dict[PartitionId, int] = {}
        self.top: PartitionId = min(self.candidates)
        self.win_pairs: Dict[int, Set[PartitionId]] = {}
        self.recorded: Dict[int, Dict[PartitionId, float]] = {}
        self.events: List[Tuple[float, int, int, PartitionId]] = []
        # Settle events not yet propagated to the traversal groups.
        self.newly_settled: List[int] = []

    def record(
        self,
        facility: PartitionId,
        is_existing: bool,
        client_ids: List[int],
        dists: List[float],
    ) -> None:
        kind = self._EXISTING if is_existing else self._CANDIDATE
        settled_de = self.settled_de
        for client_id, dist in zip(client_ids, dists):
            if client_id in settled_de:
                # Only possible with pruning ablated: judge immediately.
                if not is_existing and dist < settled_de[client_id]:
                    self.wins[facility] = self.wins.get(facility, 0) + 1
                    self._credit_settled(facility)
                continue
            if not is_existing:
                self.recorded.setdefault(client_id, {})[facility] = dist
            heapq.heappush(self.events, (dist, kind, client_id, facility))

    def advance(self, gd: float) -> None:
        while self.events and self.events[0][0] <= gd:
            dist, kind, client_id, facility = heapq.heappop(self.events)
            if client_id not in self.unsettled:
                continue
            if kind == self._EXISTING:
                self._settle(client_id, dist)
                continue
            marks = self.win_pairs.setdefault(client_id, set())
            if facility in marks:
                continue
            # Unsettled here means de > dist: a determined strict win.
            marks.add(facility)
            self.wins[facility] = self.wins.get(facility, 0) + 1
            self.unsettled_wins[facility] = (
                self.unsettled_wins.get(facility, 0) + 1
            )

    def _settle(self, client_id: int, de: float) -> None:
        self.unsettled.discard(client_id)
        self.settled_de[client_id] = de
        self.newly_settled.append(client_id)
        marks = self.win_pairs.pop(client_id, set())
        for facility in marks:
            self.unsettled_wins[facility] -= 1
            self._credit_settled(facility)
        for facility, dist in self.recorded.pop(client_id, {}).items():
            if facility in marks:
                continue  # already credited while unsettled
            if dist < de:
                self.wins[facility] = self.wins.get(facility, 0) + 1
                self._credit_settled(facility)

    def _credit_settled(self, facility: PartitionId) -> None:
        count = self.settled_wins.get(facility, 0) + 1
        self.settled_wins[facility] = count
        top = self.top
        if facility != top:
            top_count = self.settled_wins.get(top, 0)
            if count > top_count or (
                count == top_count and facility < top
            ):
                self.top = facility

    def check_answer(self) -> Optional[Tuple[PartitionId, int]]:
        """The answer once decided, in O(1).

        Every candidate's upper bound is ``settled_wins(n) + |U|`` and
        a fully-determined count equals its bound, so the answer of the
        full scan (best exact count, every other bound no larger, ties
        to the smaller id) is ``top`` when ``top`` has a win on every
        unsettled client, and undecided otherwise.
        """
        top = self.top
        if self.unsettled_wins.get(top, 0) != len(self.unsettled):
            return None
        return top, self.wins.get(top, 0)


    # -- the driver's protocol -----------------------------------------
    def step(self, gd: float) -> Optional[Decision]:
        self.advance(gd)
        return self.check_answer()

    def exhausted(self) -> Decision:
        """Everything is retrieved: every count becomes exact."""
        self.advance(INFINITY)
        # Remaining unsettled clients have de = inf beyond retrieval:
        # any recorded candidate strictly wins them.
        for client_id in list(self.unsettled):
            self._settle(client_id, INFINITY)
        answer = self.check_answer()
        if answer is None:
            # All counts are exact now; pick the max directly.
            best = max(
                self.candidates,
                key=lambda pid: (self.wins.get(pid, 0), -pid),
            )
            answer = (best, self.wins.get(best, 0))
        return answer

    def split(self) -> Tuple[int, int]:
        return len(self.unsettled), len(self.settled_de)

    def closing_bound(self, exhausted: bool) -> Optional[float]:
        """The exhausted queue's final ``Gd``; none otherwise."""
        return INFINITY if exhausted else None

    def finish(self, decision: Decision, stats: QueryStats) -> Decision:
        stats.candidate_answers_considered = len(self.candidates)
        answer, count = decision
        if count <= 0:
            return None, 0.0
        return answer, float(count)


def efficient_maxsum(
    problem: IFLSProblem,
    options: Optional[EfficientOptions] = None,
) -> IFLSResult:
    """Answer a MaxSum IFLS query (win-count objective)."""
    return run_efficient(
        "maxsum", problem, options, lambda: _MaxSumState(problem)
    )
