"""Bad query and stream inputs over the wire.

Each write path (``/query``, ``/batch``, ``/stream``,
``/stream/<id>/events``) must answer 400 before any solver runs: a bad
query never joins a coalesced flush (where it would fail its
co-batched strangers), a bad stream body opens no stream, and a bad
stream event never reaches the resident crowd.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import QueryRequest, open_venue
from repro.core.stream import ClientEvent, synthetic_events
from tests.conftest import facility_split, make_clients
from tests.service.test_server import FlushGate, ServiceHarness


@pytest.fixture(scope="module")
def rooms(office_venue):
    return sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )


@pytest.fixture(scope="module")
def good(office_venue, rooms):
    return QueryRequest(
        clients=tuple(make_clients(office_venue, 12, seed=9)),
        facilities=facility_split(rooms, 3, 5, seed=9),
        objective="mindist",
    ).to_payload()


@pytest.fixture(scope="module")
def harness(office_venue):
    h = ServiceHarness(open_venue(office_venue))
    yield h
    h.close()


def with_duplicate_id(payload):
    bad = dict(payload)
    bad["clients"] = [dict(c) for c in payload["clients"]]
    bad["clients"][1]["id"] = bad["clients"][0]["id"]
    return bad


def with_location(payload, x):
    bad = dict(payload)
    bad["clients"] = [dict(c) for c in payload["clients"]]
    location = list(bad["clients"][0]["location"])
    location[0] = x
    bad["clients"][0]["location"] = location
    return bad


BAD_QUERIES = {
    "duplicate-id": with_duplicate_id,
    "nan-token": lambda p: with_location(p, math.nan),
    "infinity-token": lambda p: with_location(p, math.inf),
    "nan-string": lambda p: with_location(p, "nan"),
    "string-flag": lambda p: {**p, "prune_clients": "false"},
    "int-flag": lambda p: {**p, "group_by_partition": 0},
    "string-ids": lambda p: {**p, "existing": "12", "candidates": "345"},
}


@pytest.mark.parametrize("case", list(BAD_QUERIES))
def test_query_rejected_with_400(harness, good, case):
    status, body = harness.request(
        "POST", "/query", BAD_QUERIES[case](good)
    )
    assert status == 400
    assert body["error"] == "ProtocolError"


@pytest.mark.parametrize("case", list(BAD_QUERIES))
def test_batch_rejected_with_400(harness, good, case):
    status, body = harness.request(
        "POST", "/batch", {"queries": [good, BAD_QUERIES[case](good)]}
    )
    assert status == 400
    assert body["error"] == "ProtocolError"


def with_unknown_client_partition(payload):
    bad = dict(payload)
    bad["clients"] = [dict(c) for c in payload["clients"]]
    bad["clients"][0]["partition"] = 99_999
    return bad


#: Requests that decode but break an IFLS input rule of the venue.
CO_BATCHED_BAD = {
    "duplicate-id": with_duplicate_id,
    "unknown-candidate": lambda p: dict(
        p, candidates=p["candidates"] + [99_999]
    ),
    "unknown-client-partition": with_unknown_client_partition,
    "empty-candidates": lambda p: dict(p, candidates=[]),
    "empty-clients": lambda p: dict(p, clients=[]),
}


def test_bad_query_does_not_fail_a_co_batched_stranger(harness, good):
    def post(body):
        return harness.request("POST", "/query", body)

    # Hold a first flush so both good queries queue behind it and
    # share the next one.
    gate = FlushGate(harness.service)
    try:
        for case, make_bad in CO_BATCHED_BAD.items():
            bad = make_bad(good)
            with ThreadPoolExecutor(max_workers=5) as pool:
                first = pool.submit(post, good)
                gate.wait_entered()
                futures = [
                    pool.submit(post, body)
                    for body in (good, bad, good, bad)
                ]
                gate.wait_pending(2)
                gate.release()
                gate.wait_entered()
                gate.release()
                assert first.result(timeout=60.0)[0] == 200, case
                outcomes = [f.result(timeout=60.0) for f in futures]
            assert len(gate.batches[-1]) == 2, case
            statuses = [status for status, _ in outcomes]
            assert statuses == [200, 400, 200, 400], case
            assert outcomes[0][1]["objective_value"] == (
                outcomes[2][1]["objective_value"]
            ), case
    finally:
        gate.remove()


#: ``POST /stream`` bodies that must not open a stream.
BAD_STREAM_OPENS = {
    "string-ids": {"existing": "12", "candidates": "345"},
    "string-flag": {"candidates": [3], "incremental": "false"},
}


@pytest.mark.parametrize("case", list(BAD_STREAM_OPENS))
def test_stream_open_rejected_with_400(harness, case):
    _, health = harness.request("GET", "/health")
    status, body = harness.request(
        "POST", "/stream", BAD_STREAM_OPENS[case]
    )
    assert status == 400
    assert body["error"] == "ProtocolError"
    _, after = harness.request("GET", "/health")
    assert after["streams"]["open"] == health["streams"]["open"]


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, "nan"],
    ids=["nan-token", "infinity-token", "nan-string"],
)
def test_stream_event_rejected_with_400(
    harness, office_venue, rooms, x
):
    facilities = facility_split(rooms, 3, 5, seed=21)
    status, opened = harness.request(
        "POST", "/stream",
        {
            "existing": sorted(facilities.existing),
            "candidates": sorted(facilities.candidates),
        },
    )
    assert status == 200
    sid = opened["stream_id"]
    crowd = synthetic_events(office_venue, initial=8, events=0, seed=3)
    status, applied = harness.request(
        "POST", f"/stream/{sid}/events",
        [event.to_payload() for event in crowd],
    )
    assert status == 200
    arrival = ClientEvent.add(crowd[0].client).to_payload()
    arrival["id"] = 999
    arrival["location"][0] = x
    status, body = harness.request(
        "POST", f"/stream/{sid}/events", [arrival]
    )
    assert status == 400
    assert body["error"] == "ProtocolError"
    status, snapshot = harness.request("GET", f"/stream/{sid}")
    assert status == 200
    assert snapshot["client_count"] == 8
    assert snapshot["answer"] == applied["answers"][-1]
