"""In-process integration tests for the /stream endpoints.

Reuses the :class:`ServiceHarness` loop-in-a-thread rig; the oracle
guarantee is asserted over the wire: an incremental stream and an
oracle stream fed identical events answer bit-identically per event.
"""

import pytest

from repro import IFLSEngine, open_venue
from repro.core.stream import (
    STREAM_FORMAT,
    ClientEvent,
    synthetic_events,
)
from repro.datasets import small_office
from tests.conftest import facility_split
from tests.service.test_server import ServiceHarness


@pytest.fixture(scope="module")
def venue():
    return small_office(levels=2, rooms=24)


@pytest.fixture(scope="module")
def fs(venue):
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return facility_split(rooms, existing=3, candidates=6, seed=77)


@pytest.fixture(scope="module")
def events(venue):
    return synthetic_events(venue, initial=20, events=40, seed=13)


@pytest.fixture()
def harness(venue):
    h = ServiceHarness(open_venue(venue))
    yield h
    h.close()


def open_payload(fs, **extra):
    payload = {
        "existing": sorted(fs.existing),
        "candidates": sorted(fs.candidates),
    }
    payload.update(extra)
    return payload


def open_stream(harness, fs, **extra):
    status, body = harness.request(
        "POST", "/stream", open_payload(fs, **extra)
    )
    assert status == 200
    return body


class TestStreamLifecycle:
    def test_open_answers_id_and_format(self, harness, fs):
        body = open_stream(harness, fs, label="lobby")
        assert body["format"] == STREAM_FORMAT
        assert body["incremental"] is True
        assert body["label"] == "lobby"
        assert body["stream_id"]

    def test_get_delete_roundtrip(self, harness, fs, events):
        sid = open_stream(harness, fs)["stream_id"]
        status, body = harness.request(
            "POST", f"/stream/{sid}/events",
            {"events": [e.to_payload() for e in events[:10]]},
        )
        assert status == 200
        assert len(body["answers"]) == 10
        status, snapshot = harness.request("GET", f"/stream/{sid}")
        assert status == 200
        assert snapshot["answer"] == body["answers"][-1]
        assert snapshot["client_count"] == body["client_count"]
        assert snapshot["stats"]["events"] == 10
        status, closed = harness.request("DELETE", f"/stream/{sid}")
        assert status == 200 and closed["closed"]
        status, _ = harness.request("DELETE", f"/stream/{sid}")
        assert status == 404

    def test_sessions_have_distinct_stats_objects(self, harness, fs):
        """Stream batches run beside flushes on the flush executor, so
        each stream answers on a session of its own, never on the
        resident one."""
        first = open_stream(harness, fs)["stream_id"]
        second = open_stream(harness, fs)["stream_id"]
        sessions = [
            harness.service._streams[sid].query.session
            for sid in (first, second)
        ] + [harness.service.session]
        stats = [session.distances.stats for session in sessions]
        assert len({id(s) for s in sessions}) == 3
        assert len({id(s) for s in stats}) == 3

    def test_bare_array_body_accepted(self, harness, fs, events):
        sid = open_stream(harness, fs)["stream_id"]
        status, body = harness.request(
            "POST", f"/stream/{sid}/events",
            [e.to_payload() for e in events[:5]],
        )
        assert status == 200
        assert len(body["answers"]) == 5

    def test_empty_batch_is_noop(self, harness, fs):
        sid = open_stream(harness, fs)["stream_id"]
        status, body = harness.request(
            "POST", f"/stream/{sid}/events", {"events": []}
        )
        assert status == 200
        assert body["answers"] == []
        assert body["stats"]["events"] == 0

    def test_unknown_stream_404(self, harness):
        status, body = harness.request("GET", "/stream/zzz")
        assert status == 404
        status, body = harness.request(
            "POST", "/stream/zzz/events", {"events": []}
        )
        assert status == 404

    def test_unknown_client_remove_400(self, harness, fs):
        sid = open_stream(harness, fs)["stream_id"]
        status, body = harness.request(
            "POST", f"/stream/{sid}/events",
            {"events": [{"kind": "remove", "id": 12345}]},
        )
        assert status == 400
        assert body["error"] == "QueryError"
        assert "12345" in body["detail"]

    def test_capacity_limit_400(self, venue, fs):
        harness = ServiceHarness(open_venue(venue), stream_capacity=2)
        try:
            open_stream(harness, fs)
            open_stream(harness, fs)
            status, body = harness.request(
                "POST", "/stream", open_payload(fs)
            )
            assert status == 400
            assert "capacity" in body["detail"]
        finally:
            harness.close()

    def test_metrics_count_open_streams(self, harness, fs, events):
        sid = open_stream(harness, fs)["stream_id"]
        harness.request(
            "POST", f"/stream/{sid}/events",
            [e.to_payload() for e in events[:7]],
        )
        status, metrics = harness.request("GET", "/metrics")
        assert status == 200
        assert metrics["streams"]["open"] == 1
        assert metrics["streams"]["events"] == 7


class TestServiceOracleIdentity:
    def test_service_streams_match_library_oracle(
        self, harness, venue, fs, events
    ):
        fast = open_stream(harness, fs)["stream_id"]
        slow = open_stream(harness, fs, incremental=False)["stream_id"]
        payloads = [e.to_payload() for e in events]
        status, a = harness.request(
            "POST", f"/stream/{fast}/events", {"events": payloads}
        )
        assert status == 200
        status, b = harness.request(
            "POST", f"/stream/{slow}/events", {"events": payloads}
        )
        assert status == 200
        assert len(a["answers"]) == len(b["answers"]) == len(events)
        for one, two in zip(a["answers"], b["answers"]):
            assert one["answer"] == two["answer"]
            assert one["objective"] == two["objective"]
            assert one["status"] == two["status"]
        # And both match an in-process replay on a cold engine.
        local = IFLSEngine(venue)
        oracle = open_venue(venue).stream(fs, incremental=False)
        del local
        for wire, event in zip(a["answers"], events):
            answer = oracle.apply(event)
            assert wire["answer"] == answer.answer
            assert wire["objective"] == answer.objective
        assert a["stats"]["skips"] > 0
        assert b["stats"]["skips"] == 0

    def test_mid_batch_error_keeps_prefix(self, harness, fs, events):
        sid = open_stream(harness, fs)["stream_id"]
        good = [e.to_payload() for e in events[:4]]
        bad = ClientEvent.remove(99999).to_payload()
        status, body = harness.request(
            "POST", f"/stream/{sid}/events",
            {"events": good + [bad] + good},
        )
        assert status == 400
        status, snapshot = harness.request("GET", f"/stream/{sid}")
        assert status == 200
        assert snapshot["stats"]["events"] == 4
