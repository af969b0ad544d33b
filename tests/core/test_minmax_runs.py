"""Differential oracle for the MinMax state's run merge.

``_MinMaxState`` takes one call per facility retrieval, merges the
retrievals as sorted runs and checks answers from a cover histogram.
The per-record state it replaced is kept below as the reference: one
pending heap entry per record, a first-retrieval heap for
``checkList``'s ``isFirst`` and a lazy max-heap over cover counts.  A
dual state feeds both the same :class:`FacilityStream` retrievals of
real queries and, after every step, asserts the same decision, the same
``dlow``, the same ``newly_settled`` list (in order), the same
``split()`` and cover counts, and a histogram that matches the counts.
"""

import heapq
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from repro import IFLSEngine, ResultStatus
from repro.core.efficient import (
    _KIND_CANDIDATE,
    _KIND_EXISTING,
    INFINITY,
    _MinMaxState,
    run_efficient,
)
from repro.datasets import random_facility_sets, small_office, venue_by_name
from repro.datasets.venues import room_partitions
from repro.datasets.workloads import uniform_clients
from repro.errors import UnreachableFacilityError
from repro.index import kernels
from tests.core.test_section7_checks import (
    OPTIONS,
    engine_for,
    office_cases,
)


class ReferenceMinMaxState:
    """The per-record MinMax state, as it was before the run merge."""

    def __init__(self, clients: Iterable) -> None:
        self.pending: List[Tuple[float, int, int, int]] = []
        self.first_heap: List[Tuple[float, int]] = []
        self.clients: Dict[int, object] = {c.client_id: c for c in clients}
        self.pruned: Set[int] = set()
        self.newly_settled: List[int] = []
        self.flagged: Set[int] = set()
        self.kept_count = len(self.clients)
        self.first_uncovered = len(self.clients)
        self.is_first = False
        self.cover_count: Dict[int, int] = {}
        self.covered_by: Dict[int, List[int]] = {}
        self.cover_heap: List[Tuple[int, int]] = []
        self.dlow = 0.0
        self.max_pruned_de = 0.0

    def record(self, client_id, facility, dist, is_existing) -> None:
        if client_id in self.pruned:
            return
        kind = _KIND_EXISTING if is_existing else _KIND_CANDIDATE
        heapq.heappush(self.pending, (dist, kind, client_id, facility))
        heapq.heappush(self.first_heap, (dist, client_id))

    def update_first(self, gd: float) -> bool:
        while self.first_heap and self.first_heap[0][0] <= gd:
            _dist, client_id = heapq.heappop(self.first_heap)
            self._flag(client_id)
        return self.first_uncovered == 0

    def _flag(self, client_id: int) -> None:
        if client_id not in self.flagged:
            self.flagged.add(client_id)
            self.first_uncovered -= 1

    def absorb(self, dist, kind, client_id, facility) -> None:
        self.dlow = dist
        if client_id in self.pruned:
            return
        if kind == _KIND_EXISTING:
            self._prune(client_id, dist)
        else:
            count = self.cover_count.get(facility, 0) + 1
            self.cover_count[facility] = count
            self.covered_by.setdefault(client_id, []).append(facility)
            heapq.heappush(self.cover_heap, (-count, facility))

    def _prune(self, client_id: int, de: float) -> None:
        self.pruned.add(client_id)
        self.newly_settled.append(client_id)
        self.kept_count -= 1
        if de > self.max_pruned_de:
            self.max_pruned_de = de
        self._flag(client_id)
        for facility in self.covered_by.pop(client_id, ()):
            count = self.cover_count[facility] - 1
            self.cover_count[facility] = count
            heapq.heappush(self.cover_heap, (-count, facility))

    def full_cover_answer(self) -> Optional[int]:
        if self.kept_count == 0:
            return None
        heap = self.cover_heap
        while heap:
            count, facility = heap[0]
            if self.cover_count.get(facility) != -count:
                heapq.heappop(heap)
                continue
            if -count < self.kept_count:
                return None
            return min(
                pid
                for pid, cnt in self.cover_count.items()
                if cnt == self.kept_count
            )
        return None

    def step(self, gd: float):
        if not self.is_first:
            self.is_first = self.update_first(gd)
        is_first = self.is_first
        pending = self.pending
        while pending and pending[0][0] <= gd:
            self.absorb(*heapq.heappop(pending))
            if self.kept_count == 0:
                return None, self.max_pruned_de
            if is_first:
                answer = self.full_cover_answer()
                if answer is not None:
                    return answer, self.dlow
        return None

    def exhausted(self):
        self.is_first = True
        decision = self.step(INFINITY)
        if decision is None and self.kept_count == 0:
            return None, self.max_pruned_de
        return decision

    def split(self) -> Tuple[int, int]:
        return self.kept_count, len(self.pruned)


def histogram(cover_count, size):
    level = [0] * size
    for count in cover_count.values():
        level[count] += 1
    return level


class Tally:
    def __init__(self):
        self.steps = 0
        self.answers = 0
        self.exhausted = 0
        self.statuses = set()


class DualState:
    """Drives the run-merge state and the reference in lockstep."""

    def __init__(self, clients, tally: Tally) -> None:
        self.fast = _MinMaxState(len(clients))
        self.ref = ReferenceMinMaxState(clients)
        self.tally = tally
        # The driver prunes and clears this list after every step.
        self.newly_settled = self.fast.newly_settled

    def record(self, facility, is_existing, client_ids, dists) -> None:
        self.fast.record(facility, is_existing, client_ids, dists)
        for client_id, dist in zip(client_ids, dists):
            self.ref.record(client_id, facility, dist, is_existing)

    def _compare(self, got, want):
        assert repr(got) == repr(want)
        assert self.fast.dlow.hex() == self.ref.dlow.hex()
        assert self.fast.newly_settled == self.ref.newly_settled
        assert self.fast.split() == self.ref.split()
        assert self.fast.cover_count == self.ref.cover_count
        assert self.fast.level[1:] == histogram(
            self.fast.cover_count, len(self.fast.level)
        )[1:]
        self.ref.newly_settled.clear()
        self.tally.steps += 1
        self.tally.answers += got is not None
        return got

    def step(self, gd):
        return self._compare(self.fast.step(gd), self.ref.step(gd))

    def exhausted(self):
        self.tally.exhausted += 1
        return self._compare(self.fast.exhausted(), self.ref.exhausted())

    def split(self):
        return self.fast.split()

    def closing_bound(self, exhausted):
        return self.fast.closing_bound(exhausted)

    def finish(self, decision, stats):
        return self.fast.finish(decision, stats)


def solve_dual(engine, clients, facilities, options, tally):
    problem = engine.problem(clients, facilities)
    try:
        result = run_efficient(
            "minmax",
            problem,
            options,
            lambda: DualState(problem.clients, tally),
        )
    except UnreachableFacilityError:
        tally.statuses.add("unreachable")
        return None
    tally.statuses.add(result.status)
    return result


def kernel_engine(venue):
    """Kernels on by construction (the ``IFLS_USE_KERNELS=0`` run
    included), so ``scalar`` is the only kernels-off variant."""
    return IFLSEngine(venue, use_kernels=kernels.available())


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    return venue, kernel_engine(venue), sorted(room_partitions(venue))


@pytest.mark.parametrize("option", list(OPTIONS))
def test_runs_match_reference_on_office(office, option):
    venue, engine, rooms = office
    engine = engine_for(engine, option)
    tally = Tally()
    for clients, facilities in office_cases(venue, rooms):
        solve_dual(engine, clients, facilities, OPTIONS[option], tally)
    assert tally.steps > tally.answers > 0
    assert tally.exhausted > 0
    assert ResultStatus.NO_IMPROVEMENT in tally.statuses
    assert ResultStatus.OPTIMAL in tally.statuses


@pytest.fixture(scope="module")
def venue_engines():
    return {
        name: kernel_engine(venue_by_name(name)) for name in ("CPH", "MC")
    }


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize(
    "venue_name,draws,count,fe,fn",
    [("CPH", 3, 300, 10, 20), ("MC", 2, 400, 75, 150)],
)
def test_runs_match_reference_on_venue(
    venue_engines, venue_name, draws, count, fe, fn, option
):
    engine = engine_for(venue_engines[venue_name], option)
    tally = Tally()
    for seed in range(draws):
        rng = random.Random(seed)
        facilities = random_facility_sets(engine.venue, fe, fn, rng)
        clients = uniform_clients(engine.venue, count, rng)
        solve_dual(engine, clients, facilities, OPTIONS[option], tally)
    # One decision per query, after many undecided steps.
    assert tally.answers == draws
    assert tally.steps > 10 * draws
