"""Lemma 5.1 group pruning names each settled client once.

After every step the solver driver prunes the clients an objective has
just settled from their traversal groups.  The probe below checks each
id the driver adds to a group's ``pruned`` set: the client must still
be listed in ``group.clients`` and not already be in ``group.pruned``.
A repeat prune, or one for a client a compaction already dropped,
inflates the lazy-compaction trigger and so the ``group_compactions``
counter.
"""

import pytest

from repro import IFLSEngine
from repro.core import efficient
from repro.core.queries import EFFICIENT_SOLVERS
from repro.datasets import small_office
from repro.datasets.venues import room_partitions

from .test_section7_checks import OPTIONS as ALL_OPTIONS
from .test_section7_checks import engine_for, office_cases

#: Every option set that prunes (``prune_clients=False`` never does).
OPTIONS = {
    name: options
    for name, options in ALL_OPTIONS.items()
    if name != "no-prune"
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
    engine = engine_for(engine, option)
    calls = []
    bad = []

    class ProbedSet(set):
        def __init__(self, group):
            super().__init__()
            self.group = group

        def add(self, client_id):
            calls.append(client_id)
            listed = any(
                c.client_id == client_id for c in self.group.clients
            )
            if not listed or client_id in self:
                bad.append(client_id)
            super().add(client_id)

    post_init = efficient._Group.__post_init__

    def probe(group):
        post_init(group)
        group.pruned = ProbedSet(group)

    monkeypatch.setattr(efficient._Group, "__post_init__", probe)
    for clients, facilities in office_cases(venue, rooms):
        EFFICIENT_SOLVERS[objective](
            engine.problem(clients, facilities), OPTIONS[option]
        )
    assert calls
    assert bad == []
