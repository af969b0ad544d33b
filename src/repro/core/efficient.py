"""The efficient IFLS approach (paper Section 5, Algorithms 2 and 3).

The algorithm answers the MinMax IFLS query with a *single* incremental
search over one VIP-tree indexing ``Fe ∪ Fn``:

* clients are grouped by partition and one bottom-up best-first
  traversal per client partition retrieves facilities for all of the
  partition's clients in order of the lower bound ``iMinD(p, I)``;
* the largest dequeued ``iMinD`` is the global distance ``Gd``: every
  facility within ``Gd`` of any client is guaranteed retrieved;
* clients whose nearest *existing* facility is within ``Gd`` are pruned
  (Lemma 5.1) — the new facility can no longer help them;
* once every remaining client has at least one retrieved facility
  (``checkList``), a refinement bound ``dlow`` steps through retrieved
  facility distances (``increaseDist``), pruning clients and checking
  after each step whether some candidate covers every remaining client
  within ``dlow`` (``checkAnswer``).  The first such candidate is
  optimal and ``dlow`` equals the optimal objective.

Equal-distance steps process existing-facility entries before candidate
entries, so a client pruned *at* the optimum never blocks the
no-improvement detection; this makes the result semantics exactly match
the brute-force oracle (see DESIGN.md, "Result semantics").

Only the answer check depends on the objective (paper Section 7).  One
driver, :func:`run_efficient`, runs the pre-phase, the
:class:`FacilityStream` traversal, ``Gd`` and the Lemma 5.1 group
pruning for MinMax, MinDist and MaxSum alike; each objective supplies
only its bookkeeping behind the :class:`ObjectiveState` protocol
(:class:`_MinMaxState` here, the other two in :mod:`repro.core.mindist`
and :mod:`repro.core.maxsum`).  :func:`measured_query` is the timing,
span and metrics wrapper every efficient objective, the baseline and
the brute-force oracle answer through: the one place a query's wall
time and distance-counter delta are taken, and the one place the
cyclic garbage collector is paused for a solve.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..errors import QueryError, UnreachableFacilityError
from ..indoor.entities import Client, PartitionId
from ..index.distance import ARRAY_CLIENTS, VIPDistanceEngine
from ..index.node import VIPNode
from ..obs import profile as _profile
from ..obs import trace as _trace
from .problem import IFLSProblem
from .result import IFLSResult, ResultStatus
from .stats import QueryStats, publish_query_metrics

INFINITY = float("inf")

BOTTOM_UP = "bottom-up"
TOP_DOWN = "top-down"

_KIND_EXISTING = 0
_KIND_CANDIDATE = 1

_ENTITY_NODE = 1
_ENTITY_FACILITY = 0


@dataclass
class EfficientOptions:
    """Tunable behaviour of the efficient approach.

    The defaults are the paper's algorithm; the other settings exist for
    the ablation benchmarks (see DESIGN.md experiments A1–A3):

    ``prune_clients=False``
        keeps resolved clients in the distance loop, paying the indoor
        distance computations that Lemma 5.1 normally avoids (answers
        are unaffected);
    ``group_by_partition=False``
        gives every client its own traversal instead of one per
        partition, modelling the per-client queue traffic the grouping
        optimisation removes;
    ``traversal=TOP_DOWN``
        seeds each traversal at the root instead of the client's leaf.

    Whether a facility retrieval runs on the array kernels is the
    distance engine's choice (``VIPDistanceEngine(use_kernels=...)``),
    not a per-query option: both paths give the same answers.
    """

    prune_clients: bool = True
    group_by_partition: bool = True
    traversal: str = BOTTOM_UP

    def __post_init__(self) -> None:
        if self.traversal not in (BOTTOM_UP, TOP_DOWN):
            raise QueryError(f"unknown traversal {self.traversal!r}")


#: A group's exit-door offsets: one list per exit door, aligned with
#: the clients, or one ``(exit doors, clients)`` array.
Offsets = Sequence[Sequence[float]]


@dataclass
class _Group:
    """One traversal stream: a client partition and its active clients.

    Pruning a client is O(1): the id goes into ``pruned`` and the
    client list is compacted *lazily* by :meth:`FacilityStream.advance`
    once at least half the list is pruned, so a query that prunes all
    ``|C|`` clients pays O(|C|) total instead of the O(|C|²) a rebuild
    per prune would cost.
    """

    partition_id: PartitionId
    clients: List[Client]
    pruned: Set[int] = field(default_factory=set)
    # The clients' ids, aligned with ``clients``: retrievals hand these
    # to the objective state.
    client_ids: List[int] = field(init=False)
    # The clients' offsets to each exit door, one list per door
    # aligned with ``clients`` (VIPDistanceEngine.exit_offsets);
    # filled at the group's first kernel-path retrieval.
    offsets: Optional[List[List[float]]] = None
    # (len(pruned), active ids, their offsets).  ``pruned`` only grows
    # between compactions, so its size tells whether a prune happened
    # since the offsets were sliced.
    _active: Optional[Tuple[int, List[int], Offsets]] = field(
        default=None, init=False, repr=False
    )
    # ``offsets`` as one 2-D array, built once per compaction for the
    # array reduction of large multi-door groups.
    _array: Optional[object] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.client_ids = [client.client_id for client in self.clients]

    def active(self) -> Tuple[List[int], Offsets]:
        """The unpruned clients' ids and exit-door offsets, in order.

        From ``ARRAY_CLIENTS`` active clients of a multi-door partition
        up, the offsets are one 2-D array, the form
        :meth:`~repro.index.distance.VIPDistanceEngine.idist_group`
        sums in one reduction; below it, plain lists.  Either may alias
        the group's own state: treat both as read-only.
        """
        pruned = self.pruned
        cached = self._active
        if cached is None or cached[0] != len(pruned):
            ids, offsets = self.client_ids, self.offsets
            keep = None
            if pruned:
                keep = [
                    index
                    for index, client_id in enumerate(ids)
                    if client_id not in pruned
                ]
                ids = [ids[index] for index in keep]
            if len(ids) >= ARRAY_CLIENTS and len(offsets) > 1:
                if self._array is None:
                    # numpy is present whenever the kernel path runs.
                    import numpy

                    self._array = numpy.array(offsets)
                offsets = self._array
                if keep is not None:
                    offsets = offsets[:, keep]
            elif keep is not None:
                offsets = _take(offsets, keep)
            cached = self._active = (len(pruned), ids, offsets)
        return cached[1], cached[2]

    def compact(self) -> None:
        """Drop the pruned clients from every aligned list."""
        pruned = self.pruned
        keep = [
            index
            for index, client_id in enumerate(self.client_ids)
            if client_id not in pruned
        ]
        self.clients = [self.clients[index] for index in keep]
        self.client_ids = [self.client_ids[index] for index in keep]
        if self.offsets is not None:
            self.offsets = _take(self.offsets, keep)
        pruned.clear()
        self._active = None
        self._array = None


def _take(offsets: List[List[float]], keep: List[int]) -> List[List[float]]:
    """The ``keep`` entries of each exit door's offset list."""
    return [list(map(column.__getitem__, keep)) for column in offsets]


#: One facility retrieval as :meth:`FacilityStream.advance` hands it
#: over: ``(facility, is_existing, client_ids, dists)``, the clients'
#: ids and their ``iDist`` to the facility as aligned plain lists.
Retrieval = Tuple[PartitionId, bool, List[int], List[float]]


class FacilityStream:
    """Incremental all-clients nearest-facility retrieval (Algorithm 3).

    Each :meth:`advance` performs one priority-queue dequeue: it returns
    the new global distance ``Gd`` and the :data:`Retrieval` that
    dequeue produced (``None`` for tree-node pops and for pops on a
    group whose clients are all pruned).  ``None`` signals queue
    exhaustion — at that point every facility has been retrieved for
    every active client.
    """

    def __init__(
        self,
        engine: VIPDistanceEngine,
        groups: List[_Group],
        existing: frozenset,
        candidates: frozenset,
        traversal: str = BOTTOM_UP,
        stats: Optional[QueryStats] = None,
    ) -> None:
        self.engine = engine
        self.tree = engine.tree
        self.groups = groups
        self.existing = existing
        self.facilities = existing | candidates
        self.stats = stats if stats is not None else QueryStats()
        # Fetched once per query: with profiling off this is None and
        # the per-dequeue hook below is a single local test.
        self._profiler = _profile.active()
        self._tie = itertools.count()
        self._queue: List[Tuple[float, int, int, int, int]] = []
        # Node ids each group has enqueued.  Facilities need no marker:
        # a leaf is expanded at most once per group and a partition
        # sits in exactly one leaf, so each facility is pushed at most
        # once per group.
        self._visited: List[Set[int]] = [set() for _ in groups]
        for index, group in enumerate(groups):
            if traversal == BOTTOM_UP:
                seed = self.tree.leaf_of(group.partition_id)
            else:
                seed = self.tree.root
            self._visited[index].add(seed.node_id)
            heapq.heappush(
                self._queue,
                (0.0, next(self._tie), index, _ENTITY_NODE, seed.node_id),
            )
            self.stats.queue_pushes += 1

    def _push_node(
        self, group_index: int, partition_id: PartitionId, node: VIPNode
    ) -> None:
        """Enqueue a node once per group under its ``iMinD`` bound; an
        already-visited node costs one set lookup and no bound."""
        visited = self._visited[group_index]
        if node.node_id in visited:
            return
        key = self.engine.imind_node(partition_id, node)
        if key == INFINITY:
            return
        visited.add(node.node_id)
        heapq.heappush(
            self._queue,
            (key, next(self._tie), group_index, _ENTITY_NODE, node.node_id),
        )
        self.stats.queue_pushes += 1

    def advance(self) -> Optional[Tuple[float, Optional[Retrieval]]]:
        """One dequeue step: ``(Gd, retrieval)`` or ``None`` when done.

        The retrieval's id list may alias the group's own; treat it as
        read-only.
        """
        if not self._queue:
            return None
        key, _tie, group_index, entity, ident = heapq.heappop(self._queue)
        self.stats.queue_pops += 1
        self.stats.iterations += 1
        group = self.groups[group_index]
        pruned = group.pruned
        if pruned and 2 * len(pruned) >= len(group.clients):
            # Lazy compaction: amortised O(1) per prune, and it keeps
            # the pruned fraction below one half so skipping pruned ids
            # during facility pops never dominates the useful work.
            self.stats.group_compaction_cost += len(group.clients)
            self.stats.group_compactions += 1
            group.compact()
        if not group.clients:
            # Every client of this partition is resolved: the paper's
            # |C[p]| > 0 guard — no distances, no expansion.
            return key, None
        if entity == _ENTITY_FACILITY:
            engine = self.engine
            if engine.use_kernels:
                # One engine call per retrieval, over offsets taken
                # once per group; the scalar loop below is the oracle.
                if group.offsets is None:
                    group.offsets = engine.exit_offsets(
                        group.partition_id, group.clients
                    )
                client_ids, offsets = group.active()
                dists = engine.idist_group(
                    group.partition_id, offsets, ident
                )
            else:
                client_ids = []
                dists = []
                idist = engine.idist
                for client in group.clients:
                    if client.client_id in pruned:
                        continue
                    client_ids.append(client.client_id)
                    dists.append(idist(client, ident))
            self.stats.facilities_retrieved += len(client_ids)
            return key, (ident, ident in self.existing, client_ids, dists)

        node = self.tree.node(ident)
        if self._profiler is not None:
            self._profiler.node_visit(
                node.depth, len(node.access_doors)
            )
        partition_id = group.partition_id
        if node.parent_id is not None:
            self._push_node(
                group_index, partition_id, self.tree.node(node.parent_id)
            )
        if node.is_leaf:
            # One engine call bounds every facility of the leaf.
            queue = self._queue
            tie = self._tie
            pushed = 0
            for pid, bound in self.engine.imind_leaf(
                partition_id, node, self.facilities
            ):
                if bound != INFINITY:
                    heapq.heappush(
                        queue,
                        (bound, next(tie), group_index, _ENTITY_FACILITY, pid),
                    )
                    pushed += 1
            self.stats.queue_pushes += pushed
        else:
            for child_id in node.child_node_ids:
                self._push_node(
                    group_index, partition_id, self.tree.node(child_id)
                )
        return key, None


#: A decided query in an objective's own terms: the answer (``None``
#: for no improvement) and the objective value.
Decision = Tuple[Optional[PartitionId], float]


class ObjectiveState(Protocol):
    """One objective's bookkeeping, as :func:`run_efficient` drives it."""

    #: Clients the last :meth:`step` settled (nearest existing facility
    #: within ``Gd``, Lemma 5.1).  The driver prunes them from their
    #: traversal groups and clears the list before the next dequeue.
    newly_settled: List[int]

    def record(
        self,
        facility: PartitionId,
        is_existing: bool,
        client_ids: List[int],
        dists: List[float],
    ) -> None:
        """Take one facility retrieval: every listed client's distance
        to ``facility`` (a :data:`Retrieval`, read-only)."""

    def step(self, gd: float) -> Optional[Decision]:
        """Absorb what ``Gd`` proves; the decision once there is one."""

    def exhausted(self) -> Optional[Decision]:
        """The last step, once the queue has run dry."""

    def split(self) -> Tuple[int, int]:
        """Retained and pruned clients (explain samples, the stats)."""

    def closing_bound(self, exhausted: bool) -> Optional[float]:
        """The bound of one more explain sample after the loop, if any."""

    def finish(
        self, decision: Optional[Decision], stats: QueryStats
    ) -> Decision:
        """The result's answer (``None``: no improvement) and objective;
        raises :class:`UnreachableFacilityError` for no decision."""


def _leads(runs, dist, kind, client_id, facility) -> bool:
    """True when the entry precedes the head of every run but the top.

    The second-smallest entry of a binary heap is the smaller child of
    its root, so this compares against one or two heads.
    """
    size = len(runs)
    if size == 1:
        return True
    after = runs[1] if size == 2 or runs[1] < runs[2] else runs[2]
    return dist < after[0] or (
        dist == after[0] and (kind, client_id, facility) < after[1:4]
    )


class _MinMaxState:
    """Bookkeeping for ``checkList`` / ``checkAnswer`` / ``prune``.

    Maintains, incrementally:

    * the pending entries ``(distance, kind, client, facility)`` not yet
      absorbed into ``dlow`` (the paper's ``increaseDist`` source), with
      existing-facility entries ordered before candidate entries at
      equal distance.  A retrieval's entries share a facility and a
      kind, so each retrieval is one *run*, sorted once by
      ``(distance, client)``; a heap of runs keyed by each run's head
      merges them in that order;
    * per-candidate cover counts (kept clients within ``dlow``) and the
      histogram ``level[k]`` of candidates covering ``k`` kept clients,
      so ``checkAnswer`` is one list lookup.

    An answer covers every kept client within ``dlow <= Gd``, so it
    implies ``checkList``'s ``isFirst``: the answer check runs after
    every absorbed entry and needs no first-retrieval bookkeeping.
    """

    def __init__(self, client_count: int) -> None:
        # Heap of runs: (head distance, kind, head client, facility,
        # run number, entries, head position).  The run number is
        # unique, so a comparison never reaches the entries.
        self.runs: List[
            Tuple[float, int, int, PartitionId, int, list, int]
        ] = []
        self._run_numbers = itertools.count()
        self.pruned: Set[int] = set()
        self.newly_settled: List[int] = []
        self.kept_count = client_count
        self.cover_count: Dict[PartitionId, int] = {}
        self.covered_by: Dict[int, List[PartitionId]] = {}
        # level[k]: candidates covering k kept clients (k >= 1; level[0]
        # is never read).  A cover count never exceeds the kept count.
        self.level: List[int] = [0] * (client_count + 1)
        self.dlow = 0.0
        self.max_pruned_de = 0.0

    # -- recording -----------------------------------------------------
    def record(
        self,
        facility: PartitionId,
        is_existing: bool,
        client_ids: List[int],
        dists: List[float],
    ) -> None:
        """Queue one retrieval as a sorted run (pruned clients dropped)."""
        entries = sorted(zip(dists, client_ids))
        pruned = self.pruned
        if pruned and not pruned.isdisjoint(client_ids):
            entries = [entry for entry in entries if entry[1] not in pruned]
        if not entries:
            return
        dist, client_id = entries[0]
        heapq.heappush(
            self.runs,
            (
                dist,
                _KIND_EXISTING if is_existing else _KIND_CANDIDATE,
                client_id,
                facility,
                next(self._run_numbers),
                entries,
                0,
            ),
        )

    # -- prune ---------------------------------------------------------
    def _prune(self, client_id: int, de: float) -> None:
        """Lemma 5.1: drop a client and every cover it contributed."""
        self.pruned.add(client_id)
        self.newly_settled.append(client_id)
        self.kept_count -= 1
        if de > self.max_pruned_de:
            self.max_pruned_de = de
        cover_count = self.cover_count
        level = self.level
        for facility in self.covered_by.pop(client_id, ()):
            count = cover_count[facility]
            cover_count[facility] = count - 1
            level[count] -= 1
            if count > 1:
                level[count - 1] += 1

    # -- checkAnswer -----------------------------------------------------
    def full_cover_answer(self) -> Optional[PartitionId]:
        """The smallest-id candidate covering every kept client, if any.

        ``level[kept]`` answers "is there one" in O(1); the scan for the
        smallest id runs only when there is.
        """
        kept = self.kept_count
        if kept == 0 or not self.level[kept]:
            return None
        return min(
            pid for pid, count in self.cover_count.items() if count == kept
        )

    # -- the driver's protocol -----------------------------------------
    def step(self, gd: float) -> Optional[Decision]:
        """Absorb the pending entries up to ``Gd``, in pending order.

        The paper's ``increaseDist`` loop (Lines 30–37): ``dlow``
        steps to each entry's distance, an existing entry prunes its
        client and a candidate entry covers it, and ``checkAnswer``
        follows every entry.  After the top run's head, the run's next
        entry is absorbed with no heap operation while it is within
        ``Gd`` and ahead of every other run's head (:func:`_leads`);
        otherwise one ``heapreplace`` files the run under its new head.
        """
        runs = self.runs
        if not runs or runs[0][0] > gd:
            return None  # most dequeues: nothing within Gd yet
        pruned = self.pruned
        cover_count = self.cover_count
        covered_by = self.covered_by
        level = self.level
        kept = self.kept_count
        dlow = self.dlow
        decision: Optional[Decision] = None
        while decision is None and runs:
            dist, kind, client_id, facility, number, entries, pos = runs[0]
            if dist > gd:
                break
            end = len(entries)
            while True:
                dlow = dist
                if client_id not in pruned:
                    if kind == _KIND_EXISTING:
                        self._prune(client_id, dist)
                        kept -= 1
                        if kept == 0:
                            decision = None, self.max_pruned_de
                    else:
                        count = cover_count.get(facility, 0) + 1
                        cover_count[facility] = count
                        if count > 1:
                            level[count - 1] -= 1
                        level[count] += 1
                        covered = covered_by.get(client_id)
                        if covered is None:
                            covered_by[client_id] = [facility]
                        else:
                            covered.append(facility)
                    if decision is None and level[kept]:
                        decision = self.full_cover_answer(), dist
                pos += 1
                if pos == end:
                    heapq.heappop(runs)
                    break
                dist, client_id = entries[pos]
                if (
                    decision is not None
                    or dist > gd
                    or not _leads(runs, dist, kind, client_id, facility)
                ):
                    head = (
                        dist, kind, client_id, facility, number, entries, pos
                    )
                    heapq.heapreplace(runs, head)
                    break
        self.dlow = dlow
        return decision

    def exhausted(self) -> Optional[Decision]:
        """Everything is retrieved: finish the refinement."""
        decision = self.step(INFINITY)
        if decision is None and self.kept_count == 0:
            return None, self.max_pruned_de
        return decision

    def split(self) -> Tuple[int, int]:
        return self.kept_count, len(self.pruned)

    def closing_bound(self, exhausted: bool) -> Optional[float]:
        """The refinement bound ``dlow`` the query was decided at."""
        return self.dlow

    def finish(
        self, decision: Optional[Decision], stats: QueryStats
    ) -> Decision:
        if decision is None:
            raise UnreachableFacilityError(
                "some clients cannot reach any candidate facility"
            )
        stats.candidate_answers_considered = len(self.cover_count)
        return decision


def efficient_minmax(
    problem: IFLSProblem,
    options: Optional[EfficientOptions] = None,
) -> IFLSResult:
    """Answer a MinMax IFLS query with the efficient approach."""
    return run_efficient(
        "minmax",
        problem,
        options,
        lambda: _MinMaxState(len(problem.clients)),
    )


def make_groups(
    problem: IFLSProblem, group_by_partition: bool
) -> List[_Group]:
    """Traversal streams: one per client partition, or one per client
    when the grouping optimisation is ablated away."""
    if group_by_partition:
        return [
            _Group(pid, list(clients))
            for pid, clients in sorted(problem.clients_by_partition.items())
        ]
    return [
        _Group(client.partition_id, [client]) for client in problem.clients
    ]


def measured_query(
    algorithm: str,
    objective: str,
    problem: IFLSProblem,
    solve: Callable[[QueryStats], IFLSResult],
) -> IFLSResult:
    """Run ``solve`` as one measured ``query.<algorithm>.<objective>``,
    with CPython's cyclic garbage collector paused for the solve.

    The one wrapper around every solver (efficient objectives, the
    baseline and the brute-force oracle), and the only code that times
    a query: it opens the query span, times the solve, adds the
    distance engine's counter movement and the elapsed time to
    ``result.stats``, and publishes the query metrics.  ``solve`` gets
    a fresh :class:`QueryStats` to fill; the oracle builds its own.

    The pause is sound because a solve builds no reference cycles:
    reference counting frees everything it allocates, and the
    collections its short-lived containers would set off free
    nothing.  The collector is disabled
    only if it was enabled, and re-enabled on the way out (also when
    ``solve`` raises) only by the call that disabled it, so overlapping
    solves on two threads never keep it off past the solve that turned
    it off.  A collection that the solve's survivors set off runs after
    the timer stops, in the caller.
    """
    engine = problem.engine
    stats = QueryStats(
        algorithm=f"{algorithm}-{objective}",
        clients_total=len(problem.clients),
    )
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        started = time.perf_counter()
        before = engine.stats.snapshot()
        with _trace.span(
            f"query.{algorithm}.{objective}",
            stats=engine.stats,
            clients=len(problem.clients),
        ):
            result = solve(stats)
        result.stats.add_engine_delta(before, engine.stats.snapshot())
        result.stats.elapsed_seconds = time.perf_counter() - started
    finally:
        if paused:
            gc.enable()
    publish_query_metrics(result)
    return result


def run_efficient(
    objective: str,
    problem: IFLSProblem,
    options: Optional[EfficientOptions],
    new_state: Callable[[], ObjectiveState],
) -> IFLSResult:
    """Answer ``problem`` with Algorithms 2–3 for one objective.

    ``new_state`` builds the objective's :class:`ObjectiveState`; it
    runs inside the measured span, like the rest of the solve.
    """
    options = options if options is not None else EfficientOptions()
    return measured_query(
        "efficient",
        objective,
        problem,
        lambda stats: _solve(new_state(), problem, options, stats),
    )


def _solve(
    state: ObjectiveState,
    problem: IFLSProblem,
    options: EfficientOptions,
    stats: QueryStats,
) -> IFLSResult:
    engine = problem.engine
    profiler = _profile.active()
    groups = make_groups(problem, options.group_by_partition)
    group_of_client = {
        client.client_id: group
        for group in groups
        for client in group.clients
    }
    stream = FacilityStream(
        engine,
        groups,
        problem.existing,
        problem.candidates,
        traversal=options.traversal,
        stats=stats,
    )

    def prune_settled() -> None:
        if options.prune_clients:
            for client_id in state.newly_settled:
                group_of_client[client_id].pruned.add(client_id)
        state.newly_settled.clear()

    # ------------------------------------------------------------------
    # Algorithm 2 pre-phase: clients located inside a facility partition.
    # ------------------------------------------------------------------
    with _trace.span("ea.prephase", stats=engine.stats):
        for group in groups:
            pid = group.partition_id
            if pid in problem.existing or pid in problem.candidates:
                count = len(group.client_ids)
                state.record(
                    pid,
                    pid in problem.existing,
                    group.client_ids,
                    [0.0] * count,
                )
                stats.facilities_retrieved += count
        decision = state.step(0.0)
        if state.newly_settled:
            prune_settled()
    if profiler is not None:
        profiler.bound_step(0.0, *state.split())

    # ------------------------------------------------------------------
    # Algorithm 3 main loop, unless the pre-phase decided the query.
    # ------------------------------------------------------------------
    exhausted = False
    if decision is None:
        with _trace.span("ea.stream", stats=engine.stats):
            while decision is None:
                step = stream.advance()
                if step is None:
                    exhausted = True
                    decision = state.exhausted()
                    break
                gd, retrieval = step
                if retrieval is not None:
                    state.record(*retrieval)
                decision = state.step(gd)
                if state.newly_settled:
                    prune_settled()
                if profiler is not None:
                    profiler.bound_step(gd, *state.split())
    if profiler is not None:
        closing = state.closing_bound(exhausted)
        if closing is not None:
            profiler.bound_step(closing, *state.split())
    # ``finish`` may raise UnreachableFacilityError: after ``ea.stream``
    # has closed, so only the query span records the error.
    answer, objective = state.finish(decision, stats)
    stats.clients_pruned = state.split()[1]
    return IFLSResult(
        answer=answer,
        objective=objective,
        status=(
            ResultStatus.OPTIMAL
            if answer is not None
            else ResultStatus.NO_IMPROVEMENT
        ),
        stats=stats,
    )
