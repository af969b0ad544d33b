"""Regression tests: duplicate client ids and non-finite coordinates.

Every solver keys its per-client state by ``client_id``, so two clients
sharing an id used to be merged silently: on the office venue below,
efficient MinMax and MinDist answered 8.0 where the baseline and brute
force answer 14.77 (MinMax) and 22.77 (MinDist).  NaN/Infinity
coordinates (which ``json.loads`` and ``float("nan")`` both accept) used
to reach the distance sums.  Both are now rejected before any solver
runs, with :class:`QueryError` (HTTP 400 on the wire).
"""

import json
import math

import pytest

from repro import Client, FacilitySets, Point, QueryRequest
from repro.core.stream import ClientEvent
from repro.errors import ProtocolError, QueryError

ALGORITHMS = [
    ("minmax", "efficient"),
    ("minmax", "baseline"),
    ("minmax", "bruteforce"),
    ("mindist", "efficient"),
    ("mindist", "bruteforce"),
    ("maxsum", "efficient"),
    ("maxsum", "bruteforce"),
]


@pytest.fixture(scope="module")
def rooms(office_venue):
    return sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )


@pytest.fixture(scope="module")
def facilities(rooms):
    return FacilitySets(frozenset(rooms[:2]), frozenset(rooms[10:14]))


def pair(venue, rooms, ids):
    """Two clients, in rooms[5] and rooms[20], with the given ids."""
    return [
        Client(cid, venue.partition(pid).center, pid)
        for cid, pid in zip(ids, (rooms[5], rooms[20]))
    ]


class TestDuplicateClientIds:
    @pytest.mark.parametrize("objective,algorithm", ALGORITHMS)
    def test_rejected_by_every_algorithm(
        self, office_venue, office_engine, rooms, facilities,
        objective, algorithm,
    ):
        twins = pair(office_venue, rooms, (7, 7))
        with pytest.raises(QueryError, match="duplicate client id 7"):
            office_engine.query(
                twins, facilities, objective=objective,
                algorithm=algorithm, cold=True,
            )

    @pytest.mark.parametrize("objective,algorithm", ALGORITHMS)
    def test_distinct_ids_agree_with_brute_force(
        self, office_venue, office_engine, rooms, facilities,
        objective, algorithm,
    ):
        clients = pair(office_venue, rooms, (7, 8))
        got = office_engine.query(
            clients, facilities, objective=objective,
            algorithm=algorithm, cold=True,
        )
        want = office_engine.query(
            clients, facilities, objective=objective,
            algorithm="bruteforce", cold=True,
        )
        assert got.objective == pytest.approx(want.objective)
        if objective == "minmax":
            assert got.objective == pytest.approx(14.770329614269007)

    def test_rejected_by_query_request(
        self, office_venue, rooms, facilities
    ):
        twins = pair(office_venue, rooms, (7, 7))
        with pytest.raises(QueryError, match="duplicate client id 7"):
            QueryRequest(clients=twins, facilities=facilities)
        payload = QueryRequest(
            clients=pair(office_venue, rooms, (7, 8)),
            facilities=facilities,
        ).to_payload()
        payload["clients"][1]["id"] = 7
        with pytest.raises(ProtocolError, match="duplicate client id"):
            QueryRequest.from_payload(payload)


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize(
        "x,y",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
         (1.0, -math.inf)],
    )
    def test_client_rejects_non_finite_location(self, x, y):
        with pytest.raises(QueryError, match="non-finite"):
            Client(3, Point(x, y, 0), 1)

    def test_finite_location_accepted(self):
        client = Client(3, Point(-1e300, 1e300, 2), 1)
        assert client.location.level == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_query_decoder_rejects_json_tokens(self, token):
        body = (
            '{"clients": [{"id": 1, "location": [%s, 2.0, 0], '
            '"partition": 3}], "candidates": [4]}' % token
        )
        with pytest.raises(ProtocolError, match="non-finite"):
            QueryRequest.from_payload(json.loads(body))

    def test_query_decoder_rejects_nan_string(self):
        payload = {
            "clients": [
                {"id": 1, "location": [1.0, "nan", 0], "partition": 3}
            ],
            "candidates": [4],
        }
        with pytest.raises(ProtocolError, match="non-finite"):
            QueryRequest.from_payload(payload)

    def test_event_decoder_rejects_nan(self):
        payload = json.loads(
            '{"kind": "add", "id": 5, "location": [NaN, 1.0, 0], '
            '"partition": 3}'
        )
        with pytest.raises(ProtocolError, match="non-finite"):
            ClientEvent.from_payload(payload)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_non_finite_timeout_rejected(self, timeout):
        with pytest.raises(ProtocolError, match="timeout_seconds"):
            QueryRequest.from_payload(
                {"candidates": [4], "timeout_seconds": timeout}
            )
