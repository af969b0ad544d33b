"""The benchmark's own input generators are deterministic per seed."""

import pytest

from iflsbench.inputs import (
    Digest,
    VenueView,
    churn_events,
    crowd,
    facility_draw,
    stream_rng,
)


@pytest.fixture(scope="module")
def view():
    from repro.datasets.venues import venue_by_name

    return VenueView(venue_by_name("CPH"))


def _digest(view, seed):
    rng = stream_rng(seed, "test")
    digest = Digest(view)
    digest.clients(crowd(rng, view, 50, view.clustered_weights(0.5)))
    digest.facilities(facility_draw(rng, view, 5, 10))
    base, events = churn_events(rng, view, 20, 100)
    digest.events(base)
    digest.events(events)
    return digest.hexdigest()


def test_same_seed_same_digest(view):
    assert _digest(view, 7) == _digest(view, 7)


def test_other_seed_other_digest(view):
    assert _digest(view, 7) != _digest(view, 8)


def test_digest_covers_the_venue_shape(view):
    digest = Digest(view)
    other = VenueView.__new__(VenueView)
    other.__dict__.update(vars(view))
    other.door_count = view.door_count + 1
    assert Digest(other).hexdigest() != digest.hexdigest()


def test_churn_events_name_live_clients_only(view):
    base, events = churn_events(stream_rng(3, "churn"), view, 5, 500)
    live = {event.client_id for event in base}
    for event in events:
        if event.kind == "add":
            assert event.client_id not in live
            live.add(event.client_id)
        else:
            assert event.client_id in live
            if event.kind == "remove":
                live.discard(event.client_id)
    assert live


def test_facility_draw_is_disjoint_rooms(view):
    facilities = facility_draw(stream_rng(1, "f"), view, 5, 10)
    assert len(facilities.existing) == 5
    assert len(facilities.candidates) == 10
    assert set(facilities.all_facilities) <= set(view.rooms)
