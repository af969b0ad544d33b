"""The open_venue()/Engine facade: resolution, backends, answering."""

import os
import warnings

import pytest

from repro import (
    IFLSEngine,
    QueryRequest,
    open_venue,
)
from repro.api import BACKENDS, Engine
from repro.errors import QueryError, VenueError
from repro.indoor.io import save_venue
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def rooms(office_venue):
    return sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )


@pytest.fixture(scope="module")
def facade(office_venue):
    return open_venue(office_venue)


def _request(venue, rooms, seed=0, **kwargs):
    return QueryRequest(
        clients=tuple(make_clients(venue, 12, seed=seed)),
        facilities=facility_split(rooms, 3, 5, seed=seed),
        **kwargs,
    )


class TestOpenVenue:
    def test_from_instance(self, office_venue):
        engine = open_venue(office_venue)
        assert engine.venue is office_venue
        assert engine.backend == "viptree"

    def test_from_builtin_name_case_insensitive(self):
        engine = open_venue("cph")
        assert engine.venue.name == "copenhagen-airport"

    def test_from_json_path(self, office_venue, tmp_path):
        path = os.path.join(tmp_path, "office.json")
        save_venue(office_venue, path)
        engine = open_venue(path)
        assert (
            engine.venue.partition_count
            == office_venue.partition_count
        )

    def test_unknown_source_is_venue_error(self):
        with pytest.raises(VenueError):
            open_venue("no-such-venue-anywhere")

    def test_unknown_backend_is_query_error(self, office_venue):
        with pytest.raises(QueryError):
            open_venue(office_venue, backend="quadtree")


class TestBackendGating:
    def test_non_query_backend_refuses_ifls(
        self, office_venue, rooms
    ):
        engine = open_venue(office_venue, backend="doortable")
        with pytest.raises(QueryError):
            engine.query(_request(office_venue, rooms))

    def test_door_to_door_agrees_across_backends(self, office_venue):
        engine = open_venue(office_venue)
        doors = sorted(d.door_id for d in office_venue.doors())[:6]
        for a in doors[:3]:
            for b in doors[3:]:
                want = engine.door_to_door(a, b)
                for name in BACKENDS:
                    got = engine.door_to_door(a, b, backend=name)
                    assert got == pytest.approx(want, abs=1e-9)


class TestQuery:
    def test_request_in_response_out(
        self, facade, office_venue, rooms
    ):
        request = _request(office_venue, rooms, seed=11)
        want = facade.core.query(
            request.clients, request.facilities, cold=True
        )
        response = facade.query(request)
        assert response.answer == want.answer
        assert response.objective_value == want.objective
        assert response.objective == "minmax"
        assert response.elapsed_seconds > 0.0
        assert response.distance_delta.get(
            "distance_computations", 0
        ) >= 0

    def test_request_plus_extras_rejected(
        self, facade, office_venue, rooms
    ):
        request = _request(office_venue, rooms)
        with pytest.raises(QueryError):
            facade.query(request.clients)

    def test_unified_path_never_warns(
        self, facade, office_venue, rooms
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            facade.query(_request(office_venue, rooms, seed=13))


class TestRun:
    def test_batch_order_and_per_query_deltas(
        self, facade, office_venue, rooms
    ):
        requests = [
            _request(
                office_venue, rooms, seed=20 + i,
                label=f"b{i}",
                objective=("minmax", "mindist", "maxsum")[i % 3],
            )
            for i in range(5)
        ]
        responses = facade.run(requests)
        assert [r.label for r in responses] == [
            r.label for r in requests
        ]
        assert [r.index for r in responses] == list(range(5))
        for request, response in zip(requests, responses):
            want = facade.core.query(
                request.clients,
                request.facilities,
                objective=request.objective,
                cold=True,
            )
            assert response.answer == want.answer
            assert response.objective_value == want.objective
            assert "distance_computations" in response.distance_delta

    def test_generator_of_requests_gets_every_response(
        self, facade, office_venue, rooms
    ):
        requests = [
            _request(office_venue, rooms, seed=40 + i, label=f"g{i}")
            for i in range(3)
        ]
        listed = facade.run(requests)
        generated = facade.run(request for request in requests)
        assert [r.label for r in generated] == ["g0", "g1", "g2"]
        assert [(r.answer, r.objective_value) for r in generated] == [
            (r.answer, r.objective_value) for r in listed
        ]


class TestScopes:
    def test_snapshot_sessions_are_independent(
        self, facade, office_venue, rooms
    ):
        first = facade.session()
        second = facade.session()
        assert first.distances is not second.distances
        request = _request(office_venue, rooms, seed=30)
        a = first.query(request.clients, request.facilities)
        b = second.query(request.clients, request.facilities)
        assert a.answer == b.answer
        assert second.report().totals == first.report().totals

    def test_pool_and_serve_builders(self, facade):
        service = facade.serve(port=0)
        assert service.engine is facade
        assert service.session.queries_answered == 0
        assert service.session.engine is facade.core


class TestHelpers:
    def test_engine_wraps_existing_core(self, office_venue):
        core = IFLSEngine(office_venue)
        facade = Engine(core)
        assert facade.core is core
        assert facade.use_kernels == core.use_kernels
