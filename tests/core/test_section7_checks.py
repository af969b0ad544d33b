"""Step-level oracle and complexity guard for the Section 7 answer checks.

The MinDist and MaxSum solvers ask their state for an answer after
every dequeue.  Both checks used to rescan every candidate; those scans
are kept below as reference functions.  The oracle tests replay seeded
queries through probe states that, at every single check, compare the
fast check with the reference scan: the same return value and, for
MinDist, the same surviving ``alive`` set.  The complexity guard counts
the candidates a check reads instead of timing it.
"""

import random

import pytest

from repro import Client, EfficientOptions, FacilitySets, IFLSEngine
from repro import ResultStatus
from repro.core import efficient, maxsum, mindist
from repro.core.efficient import TOP_DOWN
from repro.datasets import small_office
from repro.datasets.venues import room_partitions
from repro.datasets.workloads import uniform_clients

INF = float("inf")

#: The option sets the solver tests run.  ``scalar`` runs the default
#: options on a scalar engine over the same tree (:func:`engine_for`):
#: the kernel path is the engine's choice, not a per-query option.
SCALAR = "scalar"
OPTIONS = {
    "default": None,
    "no-prune": EfficientOptions(prune_clients=False),
    "no-group": EfficientOptions(group_by_partition=False),
    "top-down": EfficientOptions(traversal=TOP_DOWN),
    SCALAR: None,
}


def engine_for(engine, option):
    """The engine an option set runs on: ``engine`` itself, or for
    :data:`SCALAR` a scalar engine sharing its tree."""
    if option != SCALAR:
        return engine
    return IFLSEngine(engine.venue, tree=engine.tree, use_kernels=False)

SOLVERS = {
    "mindist": mindist.efficient_mindist,
    "maxsum": maxsum.efficient_maxsum,
}


# ---------------------------------------------------------------------
# Reference scans: the O(|Fn|)-per-check implementations, verbatim.
# ---------------------------------------------------------------------
def reference_mindist_check(state, gd, alive):
    """The two-pass MinDist scan; prunes ``alive`` (a copy) in place."""

    def lower_bound(facility):
        unknown = len(state.unsettled) - state.ex_count.get(facility, 0)
        return (
            state.settled_base
            + state.adj.get(facility, 0.0)
            + state.ex_sum.get(facility, 0.0)
            + (unknown * gd if unknown else 0.0)
        )

    def exact_total(facility):
        if state.ex_count.get(facility, 0) != len(state.unsettled):
            return None
        return (
            state.settled_base
            + state.adj.get(facility, 0.0)
            + state.ex_sum.get(facility, 0.0)
        )

    best_exact = INF
    best_pid = None
    for facility in alive:
        total = exact_total(facility)
        if total is None:
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
    dominated = [
        facility
        for facility in alive
        if facility != best_pid and lower_bound(facility) > best_exact
    ]
    for facility in dominated:
        alive.discard(facility)
    undecided = [
        facility
        for facility in alive
        if facility != best_pid
        and lower_bound(facility) <= best_exact
        and exact_total(facility) is None
    ]
    if undecided:
        return None
    return best_pid, best_exact


def reference_maxsum_check(state):
    """The two-pass MaxSum scan over exact counts and upper bounds."""

    def upper_bound(facility):
        open_statuses = len(state.unsettled) - state.unsettled_wins.get(
            facility, 0
        )
        return state.wins.get(facility, 0) + open_statuses

    def exact_count(facility):
        if state.unsettled_wins.get(facility, 0) != len(state.unsettled):
            return None
        return state.wins.get(facility, 0)

    best_count = -1
    best_pid = None
    for facility in state.candidates:
        count = exact_count(facility)
        if count is None:
            continue
        if count > best_count or (
            count == best_count
            and best_pid is not None
            and facility < best_pid
        ):
            best_count = count
            best_pid = facility
    if best_pid is None:
        return None
    for facility in state.candidates:
        if facility == best_pid:
            continue
        bound = upper_bound(facility)
        if bound > best_count:
            return None
        if bound == best_count and exact_count(facility) is None:
            if facility < best_pid:
                return None
    return best_pid, best_count


# ---------------------------------------------------------------------
# Oracle probes
# ---------------------------------------------------------------------
class Tally:
    """What the probes saw across every query of one test."""

    def __init__(self):
        self.checks = 0
        self.answers = 0
        self.exhausted = 0
        self.statuses = set()


@pytest.fixture()
def oracle(monkeypatch):
    tally = Tally()

    class MinDistProbe(mindist._MinDistState):
        def check_answer(self, gd):
            alive = set(self.alive)
            want = reference_mindist_check(self, gd, alive)
            got = super().check_answer(gd)
            assert repr(got) == repr(want)
            assert self.alive == alive
            # The histogram the fast path reads is exact.
            level = [0] * len(self.level)
            for facility in self.alive:
                level[self.ex_count.get(facility, 0)] += 1
            assert self.level == level
            tally.checks += 1
            tally.answers += got is not None
            return got

    class MaxSumProbe(maxsum._MaxSumState):
        def check_answer(self):
            want = reference_maxsum_check(self)
            got = super().check_answer()
            assert got == want
            # The leader is the (settled wins, -id) argmax, recomputed
            # from the independent wins / unsettled_wins tallies.
            assert self.top == max(
                self.candidates,
                key=lambda f: (
                    self.wins.get(f, 0) - self.unsettled_wins.get(f, 0),
                    -f,
                ),
            )
            tally.checks += 1
            tally.answers += got is not None
            return got

    class StreamProbe(efficient.FacilityStream):
        def advance(self):
            step = super().advance()
            tally.exhausted += step is None
            return step

    monkeypatch.setattr(mindist, "_MinDistState", MinDistProbe)
    monkeypatch.setattr(maxsum, "_MaxSumState", MaxSumProbe)
    monkeypatch.setattr(efficient, "FacilityStream", StreamProbe)
    return tally


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    return venue, IFLSEngine(venue), sorted(room_partitions(venue))


def office_cases(venue, rooms):
    """Seeded draws over |C|, |Fe| (incl. 0) and |Fn| (incl. 1), plus a
    crowd standing inside the existing facilities (NO_IMPROVEMENT)."""
    for seed in range(24):
        rng = random.Random(seed)
        count = rng.choice([1, 2, 5, 20, 40])
        existing = rng.choice([0, 1, 3, 5])
        candidates = rng.choice([1, 2, 4, 8])
        sample = rng.sample(rooms, existing + candidates)
        yield uniform_clients(venue, count, rng), FacilitySets(
            frozenset(sample[:existing]), frozenset(sample[existing:])
        )
    existing = rooms[:3]
    crowd = [
        Client(i, venue.partition(pid).center, pid)
        for i, pid in enumerate(existing * 2)
    ]
    yield crowd, FacilitySets(frozenset(existing), frozenset(rooms[3:7]))


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize("objective", list(SOLVERS))
def test_fast_check_matches_scan_on_office(
    oracle, office, objective, option
):
    venue, engine, rooms = office
    engine = engine_for(engine, option)
    for clients, facilities in office_cases(venue, rooms):
        result = SOLVERS[objective](
            engine.problem(clients, facilities), OPTIONS[option]
        )
        oracle.statuses.add(result.status)
    assert oracle.checks > oracle.answers > 0
    assert oracle.exhausted > 0  # the queue-exhausted path ran
    assert ResultStatus.NO_IMPROVEMENT in oracle.statuses


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize("objective", list(SOLVERS))
def test_fast_check_matches_scan_on_figure1(
    oracle, figure1, figure1_engine, objective, option
):
    _venue, existing, candidates, clients, _names = figure1
    draws = [
        FacilitySets(existing, candidates),
        FacilitySets(frozenset(), candidates),
    ] + [
        FacilitySets(existing, frozenset({pid}))
        for pid in sorted(candidates)
    ]
    engine = engine_for(figure1_engine, option)
    for facilities in draws:
        SOLVERS[objective](
            engine.problem(clients, facilities), OPTIONS[option]
        )
    assert oracle.checks > oracle.answers > 0


# ---------------------------------------------------------------------
# MaxSum leader: state-level scripts
# ---------------------------------------------------------------------
def scripted_maxsum(office, count):
    """A MaxSum state over ``count`` clients, one existing facility
    and two candidates ``a < b``."""
    venue, engine, rooms = office
    crowd = [
        Client(i, venue.partition(rooms[10 + i]).center, rooms[10 + i])
        for i in range(count)
    ]
    existing, a, b = rooms[0], rooms[1], rooms[2]
    problem = engine.problem(
        crowd, FacilitySets(frozenset({existing}), frozenset({a, b}))
    )
    return maxsum._MaxSumState(problem), existing, a, b


class TestMaxSumLeader:
    def test_equal_settled_wins_go_to_smaller_id(self, office):
        state, existing, a, b = scripted_maxsum(office, 2)
        assert state.top == a  # all zero: smallest id leads
        # b earns the first settled win and takes the lead ...
        state.record(b, False, [0], [1.0])
        state.record(existing, True, [0], [2.0])
        state.advance(2.0)
        assert state.settled_wins == {b: 1}
        assert state.top == b
        # ... and a tie on settled wins hands it back to the smaller id.
        state.record(a, False, [1], [1.0])
        state.record(existing, True, [1], [2.0])
        state.advance(2.0)
        assert state.settled_wins == {a: 1, b: 1}
        assert state.top == a
        assert state.check_answer() == reference_maxsum_check(state)
        assert state.check_answer() == (a, 1)

    def test_record_on_settled_client_credits_the_leader(self, office):
        # In a query this branch cannot fire: a client settles at
        # de <= Gd and every later record for it has dist >= Gd >= de,
        # so ``dist < de`` never holds.  Scripted here so the branch
        # still keeps the leader and the scan in agreement.
        state, existing, a, b = scripted_maxsum(office, 2)
        state.record(existing, True, [0], [5.0])
        state.advance(5.0)
        assert 0 in state.settled_de
        state.record(b, False, [0], [3.0])  # settled: judged at once
        assert state.wins == {b: 1}
        assert state.settled_wins == {b: 1}
        assert state.top == b
        # Client 1 is unsettled and b has no win on it yet.
        assert state.check_answer() is None
        assert reference_maxsum_check(state) is None
        state.record(b, False, [1], [4.0])
        state.advance(4.0)
        assert state.check_answer() == reference_maxsum_check(state)
        assert state.check_answer() == (b, 2)


# ---------------------------------------------------------------------
# Complexity guard: count candidates read per check, do not time.
# ---------------------------------------------------------------------
class Reads:
    """The candidate ids a check touches while ``active``."""

    def __init__(self):
        self.active = False
        self.touched = set()


def counting_set(items, reads):
    class CountingSet(set):
        def __iter__(self):
            for item in set.__iter__(self):
                if reads.active:
                    reads.touched.add(item)
                yield item

    return CountingSet(items)


def counting_dict(items, reads):
    class CountingDict(dict):
        def get(self, key, default=None):
            if reads.active:
                reads.touched.add(key)
            return dict.get(self, key, default)

        def __getitem__(self, key):
            if reads.active:
                reads.touched.add(key)
            return dict.__getitem__(self, key)

        def __iter__(self):
            for key in dict.__iter__(self):
                if reads.active:
                    reads.touched.add(key)
                yield key

        def keys(self):
            return list(iter(self))

        def items(self):
            return [(key, dict.__getitem__(self, key)) for key in self]

        def values(self):
            return [dict.__getitem__(self, key) for key in self]

    return CountingDict(items)


PER_CANDIDATE_SETS = ("candidates", "alive")
PER_CANDIDATE_TABLES = (
    "wins", "unsettled_wins", "settled_wins", "ex_count", "ex_sum", "adj",
)


def counting_probe(base, checks):
    """``base`` with every per-candidate container counting reads;
    each check appends ``(candidates touched, exact alive at entry)``."""

    class Probe(base):
        def __init__(self, problem):
            super().__init__(problem)
            self.reads = Reads()
            for name in PER_CANDIDATE_SETS:
                if hasattr(self, name):
                    setattr(
                        self,
                        name,
                        counting_set(getattr(self, name), self.reads),
                    )
            for name in PER_CANDIDATE_TABLES:
                if hasattr(self, name):
                    setattr(
                        self,
                        name,
                        counting_dict(getattr(self, name), self.reads),
                    )

        def check_answer(self, *args):
            exact_alive = None
            if hasattr(self, "ex_count"):
                exact_alive = any(
                    self.ex_count.get(f, 0) == len(self.unsettled)
                    for f in self.alive
                )
            self.reads.touched = set()
            self.reads.active = True
            try:
                return super().check_answer(*args)
            finally:
                self.reads.active = False
                checks.append((len(self.reads.touched), exact_alive))

    return Probe


@pytest.fixture(scope="module")
def wide_office():
    venue = small_office(levels=2, rooms=80)
    rooms = sorted(room_partitions(venue))
    rng = random.Random(2024)
    crowd = uniform_clients(venue, 60, rng)
    existing = frozenset(rooms[:8])
    return IFLSEngine(venue), rooms, crowd, existing


def checks_per_query(monkeypatch, objective, problem):
    module, state_name = {
        "mindist": (mindist, "_MinDistState"),
        "maxsum": (maxsum, "_MaxSumState"),
    }[objective]
    checks = []
    monkeypatch.setattr(
        module,
        state_name,
        counting_probe(getattr(module, state_name), checks),
    )
    SOLVERS[objective](problem)
    return checks


@pytest.mark.parametrize("size", [8, 64])
def test_maxsum_check_reads_one_candidate(monkeypatch, wide_office, size):
    engine, rooms, crowd, existing = wide_office
    facilities = FacilitySets(existing, frozenset(rooms[8:8 + size]))
    checks = checks_per_query(
        monkeypatch, "maxsum", engine.problem(crowd, facilities)
    )
    assert len(checks) > 1
    # Independent of |Fn|: each check reads the leader only.
    assert max(touched for touched, _ in checks) == 1


@pytest.mark.parametrize("size", [8, 64])
def test_mindist_scans_only_with_an_exact_candidate(
    monkeypatch, wide_office, size
):
    engine, rooms, crowd, existing = wide_office
    facilities = FacilitySets(existing, frozenset(rooms[8:8 + size]))
    checks = checks_per_query(
        monkeypatch, "mindist", engine.problem(crowd, facilities)
    )
    skipped = [touched for touched, exact in checks if not exact]
    scanned = [touched for touched, exact in checks if exact]
    assert skipped and scanned
    assert max(skipped) == 0
    assert max(scanned) <= size
