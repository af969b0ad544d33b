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
span and metrics wrapper every efficient objective and the baseline
answer through.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from ..errors import QueryError, UnreachableFacilityError
from ..indoor.entities import Client, PartitionId
from ..index.distance import VIPDistanceEngine
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
    ``use_kernels``
        forces the array-kernel facility retrieval on (``True``) or off
        (``False``) for this query; ``None`` follows the distance
        engine's ``use_kernels`` setting.  Answers are bit-identical
        either way — ``False`` is the scalar oracle the kernel tests
        compare against.
    """

    prune_clients: bool = True
    group_by_partition: bool = True
    traversal: str = BOTTOM_UP
    use_kernels: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.traversal not in (BOTTOM_UP, TOP_DOWN):
            raise QueryError(f"unknown traversal {self.traversal!r}")


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
    # Array-laid client state (offsets, active mask), attached lazily
    # by FacilityStream when the kernel path is on; None otherwise.
    # Single-exit-door groups never get arrays — they stay on the
    # dedicated no-arrays lane (single_exit memoises that check).
    arrays: Optional[object] = None
    single_exit: Optional[bool] = None

    def prune(self, client_id: int) -> None:
        """Mark one client resolved (lazy removal)."""
        self.pruned.add(client_id)
        if self.arrays is not None:
            self.arrays.mark_pruned(client_id)

    @property
    def active_count(self) -> int:
        """Clients not yet pruned."""
        return len(self.clients) - len(self.pruned)


class FacilityStream:
    """Incremental all-clients nearest-facility retrieval (Algorithm 3).

    Each :meth:`advance` performs one priority-queue dequeue: it returns
    the new global distance ``Gd`` and the ``(client, facility,
    iDist, is_existing)`` records produced by that dequeue (empty for
    tree-node pops).  ``None`` signals queue exhaustion — at that point
    every facility has been retrieved for every active client.
    """

    def __init__(
        self,
        engine: VIPDistanceEngine,
        groups: List[_Group],
        existing: frozenset,
        candidates: frozenset,
        traversal: str = BOTTOM_UP,
        stats: Optional[QueryStats] = None,
        use_kernels: Optional[bool] = None,
    ) -> None:
        self.engine = engine
        self.tree = engine.tree
        self.groups = groups
        self.existing = existing
        self.facilities = existing | candidates
        self.stats = stats if stats is not None else QueryStats()
        # Kernel facility retrieval: None follows the engine; False
        # forces the scalar loop (the oracle); True demands kernels.
        if use_kernels is None:
            self._use_kernels = engine.use_kernels
        elif use_kernels and not engine.use_kernels:
            raise QueryError(
                "use_kernels=True needs a distance engine constructed "
                "with kernels enabled"
            )
        else:
            self._use_kernels = bool(use_kernels)
        # Fetched once per query: with profiling off this is None and
        # the per-dequeue hook below is a single local test.
        self._profiler = _profile.active()
        self._tie = itertools.count()
        self._queue: List[Tuple[float, int, int, int, int]] = []
        self._visited: List[Set[Tuple[int, int]]] = [
            set() for _ in groups
        ]
        for index, group in enumerate(groups):
            if traversal == BOTTOM_UP:
                seed = self.tree.leaf_of(group.partition_id)
            else:
                seed = self.tree.root
            self._push(index, _ENTITY_NODE, seed.node_id, lambda: 0.0)

    def _push(
        self, group_index: int, entity: int, ident: int, key_fn
    ) -> None:
        """Enqueue once per (group, entity); the bound is computed
        lazily so already-visited entities cost one set lookup."""
        marker = (entity, ident)
        visited = self._visited[group_index]
        if marker in visited:
            return
        key = key_fn()
        if key == INFINITY:
            return
        visited.add(marker)
        heapq.heappush(
            self._queue,
            (key, next(self._tie), group_index, entity, ident),
        )
        self.stats.queue_pushes += 1

    def _retrieve_kernel(
        self, group: _Group, ident: PartitionId
    ) -> List[Tuple[Client, PartitionId, float, bool]]:
        """One facility retrieval as array kernels (Lemma 5.1 hot loop).

        The scalar loop pays, per dequeue, one Python iteration per
        client (pruned-set probe + ``idist`` with its door loops).
        Here the group's client state lives in a
        :class:`~repro.index.kernels.GroupArrays`: the active rows are
        one cached mask scan and the distances one
        :meth:`~repro.index.distance.VIPDistanceEngine.idist_values`
        call over the pack's memoised per-exit-door reductions.
        Record order, values, and the prune decisions driven by the
        returned records are bit-identical to the scalar loop; the
        states' heaps remain the tie-breaking authority.
        """
        engine = self.engine
        arrays = group.arrays
        if arrays is None:
            single = group.single_exit
            if single is None:
                single = engine.single_exit(group.partition_id)
                group.single_exit = single
            if single:
                # Single-exit-door group: no offset matrix to pack —
                # the dedicated lane answers from one iMinD plus the
                # per-client offsets, and the group keeps its plain
                # pruned-set bookkeeping (arrays stays None).
                active, values = engine.idist_single_door(
                    group.partition_id,
                    group.clients,
                    group.pruned,
                    ident,
                )
                is_existing = ident in self.existing
                return [
                    (client, ident, values[index], is_existing)
                    for index, client in enumerate(active)
                ]
            # First retrieval for this group: pack offsets once, with
            # the mask seeded from the prunes that already happened.
            arrays = engine.group_arrays(
                group.clients,
                group.partition_id,
                pruned=group.pruned,
            )
            group.arrays = arrays
        rows, values = engine.idist_values(arrays, ident)
        is_existing = ident in self.existing
        clients = group.clients
        return [
            (clients[row], ident, values[index], is_existing)
            for index, row in enumerate(rows)
        ]

    def advance(
        self,
    ) -> Optional[Tuple[float, List[Tuple[Client, PartitionId, float, bool]]]]:
        """One dequeue step: ``(Gd, records)`` or ``None`` when done."""
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
            group.clients = [
                c for c in group.clients if c.client_id not in pruned
            ]
            pruned.clear()
            if group.arrays is not None:
                group.arrays.compact(group.clients)
        if not group.clients:
            # Every client of this partition is resolved: the paper's
            # |C[p]| > 0 guard — no distances, no expansion.
            return key, []
        if entity == _ENTITY_FACILITY:
            if self._use_kernels:
                records = self._retrieve_kernel(group, ident)
            else:
                records = []
                for client in group.clients:
                    if client.client_id in pruned:
                        continue
                    dist = self.engine.idist(client, ident)
                    records.append(
                        (client, ident, dist, ident in self.existing)
                    )
            self.stats.facilities_retrieved += len(records)
            return key, records

        node = self.tree.node(ident)
        if self._profiler is not None:
            self._profiler.node_visit(
                node.depth, len(node.access_doors)
            )
        partition_id = group.partition_id
        if node.parent_id is not None:
            parent = self.tree.node(node.parent_id)
            self._push(
                group_index,
                _ENTITY_NODE,
                parent.node_id,
                lambda: self.engine.imind_node(partition_id, parent),
            )
        if node.is_leaf:
            for pid in node.partitions:
                if pid == partition_id or pid not in self.facilities:
                    continue
                self._push(
                    group_index,
                    _ENTITY_FACILITY,
                    pid,
                    lambda pid=pid: self.engine.imind_partitions(
                        partition_id, pid
                    ),
                )
        else:
            for child_id in node.child_node_ids:
                child = self.tree.node(child_id)
                self._push(
                    group_index,
                    _ENTITY_NODE,
                    child_id,
                    lambda child=child: self.engine.imind_node(
                        partition_id, child
                    ),
                )
        return key, []


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
        client_id: int,
        facility: PartitionId,
        dist: float,
        is_existing: bool,
    ) -> None:
        """Take one retrieved client-facility distance."""

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


class _MinMaxState:
    """Bookkeeping for ``checkList`` / ``checkAnswer`` / ``prune``.

    Maintains, incrementally:

    * the *pending* heap of retrieved ``(distance, kind, client,
      facility)`` entries not yet absorbed into ``dlow`` (the paper's
      ``increaseDist`` source), with existing-facility entries ordered
      before candidate entries at equal distance;
    * per-candidate cover counts (kept clients within ``dlow``) plus a
      lazy max-heap so ``checkAnswer`` is O(log) amortised;
    * the ``isFirst`` flag of ``checkList`` via a second heap of first
      retrieval distances.
    """

    def __init__(self, clients: Iterable[Client]) -> None:
        self.pending: List[Tuple[float, int, int, PartitionId]] = []
        self.first_heap: List[Tuple[float, int]] = []
        self.clients: Dict[int, Client] = {
            c.client_id: c for c in clients
        }
        self.pruned: Set[int] = set()
        self.newly_settled: List[int] = []
        self.flagged: Set[int] = set()
        self.kept_count = len(self.clients)
        self.first_uncovered = len(self.clients)
        self.is_first = False
        self.cover_count: Dict[PartitionId, int] = {}
        self.covered_by: Dict[int, List[PartitionId]] = {}
        self.cover_heap: List[Tuple[int, PartitionId]] = []
        self.dlow = 0.0
        self.max_pruned_de = 0.0

    # -- recording -----------------------------------------------------
    def record(
        self,
        client_id: int,
        facility: PartitionId,
        dist: float,
        is_existing: bool,
    ) -> None:
        if client_id in self.pruned:
            return
        kind = _KIND_EXISTING if is_existing else _KIND_CANDIDATE
        heapq.heappush(self.pending, (dist, kind, client_id, facility))
        heapq.heappush(self.first_heap, (dist, client_id))

    # -- checkList -----------------------------------------------------
    def update_first(self, gd: float) -> bool:
        """Pop first-retrieval entries <= Gd; True when every kept
        client has at least one facility within Gd (``isFirst``)."""
        while self.first_heap and self.first_heap[0][0] <= gd:
            _dist, client_id = heapq.heappop(self.first_heap)
            self._flag(client_id)
        return self.first_uncovered == 0

    def _flag(self, client_id: int) -> None:
        if client_id not in self.flagged:
            self.flagged.add(client_id)
            self.first_uncovered -= 1

    # -- prune / cover -------------------------------------------------
    def absorb(self, dist: float, kind: int, client_id: int,
               facility: PartitionId) -> None:
        """Advance ``dlow`` to ``dist`` and apply one pending entry."""
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

    # -- checkAnswer -----------------------------------------------------
    def full_cover_answer(self) -> Optional[PartitionId]:
        """The smallest-id candidate covering every kept client, if any."""
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

    # -- the driver's protocol -----------------------------------------
    def step(self, gd: float) -> Optional[Decision]:
        """``checkList``, then absorb the pending entries up to ``Gd``.

        While ``isFirst`` is false no answer can exist below ``Gd`` (some
        client has no facility within ``Gd``), so entries are absorbed
        without answer checks — the paper's Lines 26–28.  Once true, the
        paper's ``increaseDist`` loop applies: one entry at a time with a
        ``checkAnswer`` after each (Lines 30–37).
        """
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

    def exhausted(self) -> Optional[Decision]:
        """Everything is retrieved: finish the refinement."""
        self.is_first = True
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
        "minmax", problem, options, lambda: _MinMaxState(problem.clients)
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
    """Run ``solve`` as one measured ``query.<algorithm>.<objective>``.

    The one wrapper around every efficient objective and the baseline:
    it opens the query span, times the solve, adds the distance
    engine's counter movement to the result's :class:`QueryStats`, and
    publishes the query metrics.
    """
    engine = problem.engine
    stats = QueryStats(
        algorithm=f"{algorithm}-{objective}",
        clients_total=len(problem.clients),
    )
    started = time.perf_counter()
    before = engine.stats.snapshot()
    with _trace.span(
        f"query.{algorithm}.{objective}",
        stats=engine.stats,
        clients=len(problem.clients),
    ):
        result = solve(stats)
    stats.add_engine_delta(before, engine.stats.snapshot())
    stats.elapsed_seconds = time.perf_counter() - started
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
        use_kernels=options.use_kernels,
    )

    def prune_settled() -> None:
        if options.prune_clients:
            for client_id in state.newly_settled:
                group_of_client[client_id].prune(client_id)
        state.newly_settled.clear()

    # ------------------------------------------------------------------
    # Algorithm 2 pre-phase: clients located inside a facility partition.
    # ------------------------------------------------------------------
    with _trace.span("ea.prephase", stats=engine.stats):
        for client in problem.clients:
            pid = client.partition_id
            if pid in problem.existing or pid in problem.candidates:
                state.record(
                    client.client_id, pid, 0.0, pid in problem.existing
                )
                stats.facilities_retrieved += 1
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
                gd, records = step
                for client, facility, dist, is_existing in records:
                    state.record(
                        client.client_id, facility, dist, is_existing
                    )
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
