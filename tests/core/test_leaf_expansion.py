"""Leaf expansion in one engine call keeps answers and the ledger exact.

``FacilityStream.advance`` bounds every facility of a popped VIP-tree
leaf with one :meth:`VIPDistanceEngine.imind_leaf` call, which the
kernel path answers from the pack's cached leaf rows.  The reference
below is the per-pair loop that call replaced, patched over it: every
``DistanceStats`` field, every ``QueryStats`` counter and the memo
tables themselves (contents and insertion order, so eviction under a
budget) must come out equal.  CPH's door matrix is not exactly
symmetric, so a cold kernel query there must still match the scalar
engine.
"""

import random

import pytest

pytest.importorskip("numpy")

from repro import IFLSEngine  # noqa: E402
from repro.core import efficient  # noqa: E402
from repro.core.problem import IFLSProblem  # noqa: E402
from repro.core.queries import EFFICIENT_SOLVERS  # noqa: E402
from repro.datasets import (  # noqa: E402
    random_facility_sets,
    small_office,
    uniform_clients,
    venue_by_name,
)
from repro.datasets.venues import room_partitions  # noqa: E402
from repro.index.distance import VIPDistanceEngine  # noqa: E402
from repro.index.viptree import VIPTree  # noqa: E402

from .test_section7_checks import office_cases  # noqa: E402

#: Every ``QueryStats`` counter the traversal and the states move.
TRAVERSAL_COUNTERS = (
    "clients_pruned",
    "facilities_retrieved",
    "candidate_answers_considered",
    "queue_pushes",
    "queue_pops",
    "iterations",
    "group_compactions",
    "group_compaction_cost",
)


def per_pair_imind_leaf(engine, p, leaf, facilities):
    """The per-facility loop ``imind_leaf`` replaced (the reference)."""
    return [
        (pid, engine.imind_partitions(p, pid))
        for pid in leaf.partitions
        if pid != p and pid in facilities
    ]


def _counters(result):
    snap = result.stats.snapshot()
    del snap["elapsed_seconds"]
    return snap


def _memo(engine):
    return (
        list(engine._imind_pp.items()),
        list(engine._imind_node.items()),
        list(engine._d2d_cache.items()),
    )


@pytest.fixture(scope="module")
def office():
    # Four levels, so a 300-entry budget evicts on the larger draws.
    venue = small_office(levels=4, rooms=60)
    return venue, VIPTree(venue), sorted(room_partitions(venue))


def _run_office(tree, venue, rooms, objective, budget):
    out = []
    for clients, facilities in office_cases(venue, rooms):
        engine = VIPDistanceEngine(
            tree, max_cache_entries=budget, use_kernels=True
        )
        result = EFFICIENT_SOLVERS[objective](
            IFLSProblem(engine, clients, facilities)
        )
        out.append(
            (
                result.answer,
                result.objective,
                _counters(result),
                engine.stats.snapshot(),
                _memo(engine),
            )
        )
    return out


@pytest.fixture
def pops(monkeypatch):
    """Every queue entry the solvers pop, tie counter included."""
    log = []

    class PopLog(efficient.FacilityStream):
        def advance(self):
            if self._queue:
                log.append(self._queue[0])
            return super().advance()

    monkeypatch.setattr(efficient, "FacilityStream", PopLog)
    return log


@pytest.mark.parametrize("budget", [None, 0, 1, 300])
@pytest.mark.parametrize("objective", list(EFFICIENT_SOLVERS))
def test_ledger_matches_per_pair_reference(
    monkeypatch, pops, office, objective, budget
):
    venue, tree, rooms = office
    got = _run_office(tree, venue, rooms, objective, budget)
    got_pops = list(pops)
    pops.clear()
    monkeypatch.setattr(
        VIPDistanceEngine, "imind_leaf", per_pair_imind_leaf
    )
    want = _run_office(tree, venue, rooms, objective, budget)
    assert got == want
    assert got_pops == pops  # same pushes, same tie order
    if budget in (1, 300):
        assert sum(row[3]["cache_evictions"] for row in got) > 0


@pytest.mark.parametrize("budget", [None, 0, 1, 3])
def test_engine_call_matches_per_pair_calls(office, budget):
    """Each expansion follows a lookup of the leaf's last facility, so
    under a tight budget a store earlier in the same leaf evicts the
    pair a later probe would have hit."""
    _, tree, rooms = office
    facilities = frozenset(random.Random(7).sample(rooms, len(rooms) // 2))
    runs = []
    for expand in (VIPDistanceEngine.imind_leaf, per_pair_imind_leaf):
        engine = VIPDistanceEngine(
            tree, max_cache_entries=budget, use_kernels=True
        )
        bounds = []
        for leaf in tree.leaves():
            members = [q for q in leaf.partitions if q in facilities]
            for p in rooms[::3]:
                if members and members[-1] != p:
                    engine.imind_partitions(p, members[-1])
                bounds.append(expand(engine, p, leaf, facilities))
        runs.append((bounds, engine.stats.snapshot(), _memo(engine)))
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def cph():
    venue = venue_by_name("CPH")
    kernel = IFLSEngine(venue, use_kernels=True)
    scalar = IFLSEngine(venue, tree=kernel.tree, use_kernels=False)
    return venue, kernel, scalar


@pytest.mark.parametrize("objective", list(EFFICIENT_SOLVERS))
def test_cold_kernel_query_matches_scalar_on_cph(cph, objective):
    venue, kernel, scalar = cph
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        facilities = random_facility_sets(venue, 10, 20, rng)
        clients = uniform_clients(venue, 300, rng)
        got = kernel.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar.query(
            clients, facilities, objective=objective, cold=True
        )
        assert got.answer == want.answer
        assert got.objective == want.objective  # bit-identical float
        for name in TRAVERSAL_COUNTERS:
            assert getattr(got.stats, name) == getattr(
                want.stats, name
            ), name
