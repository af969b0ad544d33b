"""Lemma 5.1 group pruning names each settled client once.

After every step the solver driver prunes the clients an objective has
just settled from their traversal groups.  The probe below checks each
``_Group.prune`` call: the client must still be listed in
``group.clients`` and not already be in ``group.pruned``.  A repeat
prune, or one for a client a compaction already dropped, inflates the
lazy-compaction trigger and so the ``group_compactions`` counter.
"""

import pytest

from repro import EfficientOptions, IFLSEngine
from repro.core import efficient
from repro.core.efficient import TOP_DOWN
from repro.core.queries import EFFICIENT_SOLVERS
from repro.datasets import small_office
from repro.datasets.venues import room_partitions

from .test_section7_checks import office_cases

#: Every option set that prunes (``prune_clients=False`` never does).
OPTIONS = {
    "default": None,
    "no-group": EfficientOptions(group_by_partition=False),
    "top-down": EfficientOptions(traversal=TOP_DOWN),
    "scalar": EfficientOptions(use_kernels=False),
}


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    return venue, IFLSEngine(venue), sorted(room_partitions(venue))


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize("objective", list(EFFICIENT_SOLVERS))
def test_prunes_name_listed_unpruned_clients(
    monkeypatch, office, objective, option
):
    venue, engine, rooms = office
    calls = []
    bad = []
    prune = efficient._Group.prune

    def probe(group, client_id):
        calls.append(client_id)
        listed = any(c.client_id == client_id for c in group.clients)
        if not listed or client_id in group.pruned:
            bad.append(client_id)
        prune(group, client_id)

    monkeypatch.setattr(efficient._Group, "prune", probe)
    for clients, facilities in office_cases(venue, rooms):
        EFFICIENT_SOLVERS[objective](
            engine.problem(clients, facilities), OPTIONS[option]
        )
    assert calls
    assert bad == []
