"""End-to-end telemetry: correlation ids across every layer, the
flight recorder under live traffic, structured logs, and Prometheus
exposition over HTTP.

The central invariant: one HTTP request = one ``r…`` request id, and
that same id must appear on the server span, the coalesced flush that
carried the queries, every response payload, and the structured log
line — with zero trust between the layers (each
records the id independently).
"""

import http.client
import io
import json
import threading

import pytest

from repro import QueryRequest, open_venue
from repro.core.stream import ClientEvent
from repro.obs import trace as trace_module
from repro.obs.prometheus import lint_exposition
from repro.obs.trace import SpanRecord, Tracer
from tests.conftest import facility_split, make_clients

from .test_server import ServiceHarness


@pytest.fixture(scope="module")
def rooms(office_venue):
    return sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )


@pytest.fixture(scope="module")
def workload(office_venue, rooms):
    requests = []
    for i in range(6):
        requests.append(
            QueryRequest(
                clients=tuple(
                    make_clients(office_venue, 15, seed=700 + i)
                ),
                facilities=facility_split(rooms, 3, 5, seed=700 + i),
                objective=("minmax", "mindist", "maxsum")[i % 3],
                label=f"t{i}",
            )
        )
    return requests


@pytest.fixture()
def harness(office_venue):
    h = ServiceHarness(
        open_venue(office_venue), log_stream=io.StringIO()
    )
    yield h
    h.close()


def log_events(harness):
    """The structured log parsed back, one dict per line."""
    return [
        json.loads(line)
        for line in harness.service.config.log_stream.getvalue()
        .splitlines()
    ]


def raw_request(harness, method, path, headers=None):
    """HTTP helper that does not assume a JSON body."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", harness.port, timeout=60.0
    )
    try:
        conn.request(method, path, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


class TestCorrelation:
    def test_one_request_id_spans_every_layer(
        self, harness, workload
    ):
        """POST /batch: the minted id reaches the server span, the
        flush, all response payloads, and the log."""
        status, body = harness.request(
            "POST",
            "/batch",
            {"queries": [r.to_payload() for r in workload[:4]]},
        )
        assert status == 200
        rids = {p["request_id"] for p in body["responses"]}
        assert len(rids) == 1
        rid = rids.pop()
        assert rid.startswith("r")

        records = harness.service.flight.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)

        server_spans = [
            r
            for r in by_name.get("service.request", [])
            if r.attrs.get("request_id") == rid
        ]
        assert len(server_spans) == 1
        assert server_spans[0].attrs["path"] == "/batch"

        flushes = [
            r
            for r in by_name.get("service.batch.flush", [])
            if rid in r.attrs.get("request_ids", [])
        ]
        assert flushes, "no coalesced flush tagged with the rid"
        assert sum(f.attrs["queries"] for f in flushes) >= 4

        logged = [
            e
            for e in log_events(harness)
            if e["event"] == "service.request"
            and e["request_id"] == rid
        ]
        assert len(logged) == 1
        line = logged[0]
        assert line["status"] == 200
        assert line["method"] == "POST"
        assert line["path"] == "/batch"
        assert line["backend"] == "viptree"
        assert line["seconds"] >= 0.0

    def test_single_query_log_carries_solver_fields(
        self, harness, workload
    ):
        status, body = harness.request(
            "POST", "/query", workload[0].to_payload()
        )
        assert status == 200
        rid = body["request_id"]
        (line,) = [
            e
            for e in log_events(harness)
            if e["event"] == "service.request"
            and e["request_id"] == rid
        ]
        assert line["objective"] == workload[0].objective
        assert line["algorithm"] == "efficient"
        assert line["answer"] == body["answer"]
        assert line["distance_delta"] == body["distance_delta"]
        assert line["solver_seconds"] == body["elapsed_seconds"]

    def test_request_ids_are_distinct_per_request(
        self, harness, workload
    ):
        ids = []
        for request in workload[:3]:
            _, body = harness.request(
                "POST", "/query", request.to_payload()
            )
            ids.append(body["request_id"])
        assert len(set(ids)) == 3

    def test_stream_events_tagged_with_request_id(
        self, harness, rooms, office_venue
    ):
        facilities = facility_split(rooms, 3, 5, seed=41)
        status, opened = harness.request(
            "POST",
            "/stream",
            {
                "existing": sorted(facilities.existing),
                "candidates": sorted(facilities.candidates),
            },
        )
        assert status == 200
        stream_id = opened["stream_id"]
        clients = make_clients(office_venue, 3, seed=42)
        events = [
            ClientEvent("add", c.client_id, c).to_payload()
            for c in clients
        ]
        status, body = harness.request(
            "POST", f"/stream/{stream_id}/events", {"events": events}
        )
        assert status == 200
        event_spans = [
            r
            for r in harness.service.flight.records()
            if r.name == "stream.event"
        ]
        assert len(event_spans) == 3
        rids = {r.attrs.get("request_id") for r in event_spans}
        assert len(rids) == 1
        rid = rids.pop()
        assert rid and rid.startswith("r")
        # Same id on the enclosing server span.
        assert any(
            r.name == "service.request"
            and r.attrs.get("request_id") == rid
            for r in harness.service.flight.records()
        )


class TestFlightDump:
    def test_504_dumps_the_flight_tail(self, harness, workload):
        payload = workload[0].to_payload()
        payload["timeout_seconds"] = 1e-6
        status, body = harness.request("POST", "/query", payload)
        assert status == 504
        assert body["error"] == "RequestTimeout"

        status, dump = harness.request(
            "GET", "/debug/flight?last=10"
        )
        assert status == 200
        failed = [
            r
            for r in dump["records"]
            if r["name"] == "service.request"
            and r["attrs"].get("error") == "RequestTimeout"
        ]
        assert failed, "504'd request span missing from the flight"
        rid = failed[-1]["attrs"]["request_id"]

        dumps = [
            e for e in log_events(harness) if e["event"] == "flight.dump"
        ]
        assert len(dumps) == 1
        assert dumps[0]["trigger"] == "http_504"
        assert dumps[0]["request_id"] == rid
        assert dumps[0]["records"], "dump log carries no records"

    def test_debug_flight_respects_last_and_validates_it(
        self, harness, workload
    ):
        for request in workload[:3]:
            harness.request("POST", "/query", request.to_payload())
        status, dump = harness.request("GET", "/debug/flight?last=2")
        assert status == 200
        assert len(dump["records"]) == 2
        assert dump["appended"] >= dump["dropped"]
        status, body = harness.request(
            "GET", "/debug/flight?last=potato"
        )
        assert status == 400
        assert body["error"] == "ProtocolError"

    def test_debug_flight_rejects_post(self, harness):
        status, body = harness.request("POST", "/debug/flight")
        assert status == 405
        assert body["error"] == "MethodNotAllowed"


class TestPrometheusEndpoint:
    def test_format_param_negotiates_exposition(
        self, harness, workload
    ):
        harness.request("POST", "/query", workload[0].to_payload())
        status, content_type, text = raw_request(
            harness, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "ifls_service_requests_total" in text
        assert lint_exposition(text) == []

    def test_accept_header_negotiates_exposition(
        self, harness, workload
    ):
        harness.request("POST", "/query", workload[1].to_payload())
        status, content_type, text = raw_request(
            harness,
            "GET",
            "/metrics",
            headers={"Accept": "text/plain"},
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert text.startswith("# HELP")

    def test_default_stays_json(self, harness):
        status, content_type, text = raw_request(
            harness, "GET", "/metrics"
        )
        assert status == 200
        assert content_type == "application/json"
        assert "ledger" in json.loads(text)

    def test_explicit_json_format_wins_over_accept(self, harness):
        status, content_type, _text = raw_request(
            harness,
            "GET",
            "/metrics?format=json",
            headers={"Accept": "text/plain"},
        )
        assert status == 200
        assert content_type == "application/json"


class TestHealthGauges:
    def test_health_includes_pool_stream_flight_snapshots(
        self, harness, workload, rooms
    ):
        harness.request("POST", "/query", workload[0].to_payload())
        facilities = facility_split(rooms, 3, 5, seed=43)
        harness.request(
            "POST",
            "/stream",
            {
                "existing": sorted(facilities.existing),
                "candidates": sorted(facilities.candidates),
            },
        )
        status, body = harness.request("GET", "/health")
        assert status == 200
        assert body["pool"]["sessions"] >= 1
        assert body["pool"]["cache_bytes"] >= 0
        assert (
            body["pool"]["idle"] + body["pool"]["checked_out"]
            == body["pool"]["sessions"]
        )
        assert body["streams"]["open"] == 1
        assert body["streams"]["capacity"] == 32
        flight = body["flight"]
        assert flight["capacity"] == 256
        assert 0 < flight["records"] <= flight["capacity"]
        assert flight["dropped"] == max(
            0, harness.service.flight.appended - flight["capacity"]
        )


class TestFlightConcurrency:
    def test_ring_wraparound_exact_under_concurrent_traffic(
        self, office_venue, rooms
    ):
        """A tiny ring hammered by concurrent /query and /stream
        traffic: no tearing, and the dropped/appended identity plus the
        flight.* counters stay exact."""
        harness = ServiceHarness(
            open_venue(office_venue),
            flight_capacity=8,
            log_stream=io.StringIO(),
        )
        try:
            requests = [
                QueryRequest(
                    clients=tuple(
                        make_clients(office_venue, 10, seed=900 + i)
                    ),
                    facilities=facility_split(
                        rooms, 3, 5, seed=900 + i
                    ),
                    objective="minmax",
                    label=f"c{i}",
                )
                for i in range(6)
            ]
            facilities = facility_split(rooms, 3, 5, seed=950)
            _, opened = harness.request(
                "POST",
                "/stream",
                {
                    "existing": sorted(facilities.existing),
                    "candidates": sorted(facilities.candidates),
                },
            )
            stream_id = opened["stream_id"]
            clients = make_clients(office_venue, 12, seed=951)
            statuses = []

            def post_query(request):
                status, _ = harness.request(
                    "POST", "/query", request.to_payload()
                )
                statuses.append(status)

            def post_events():
                for client in clients:
                    status, _ = harness.request(
                        "POST",
                        f"/stream/{stream_id}/events",
                        {
                            "events": [
                                ClientEvent(
                                    "add", client.client_id, client
                                ).to_payload()
                            ]
                        },
                    )
                    statuses.append(status)

            threads = [
                threading.Thread(target=post_query, args=(r,))
                for r in requests
            ] + [threading.Thread(target=post_events)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses and all(s == 200 for s in statuses)

            flight = harness.service.flight
            appended = flight.appended
            assert appended > 8  # the ring genuinely wrapped
            assert flight.dropped == appended - 8
            records = flight.records()
            assert len(records) == 8
            for record in records:
                assert isinstance(record, SpanRecord)
                assert record.name
                assert record.duration >= 0.0
            counters = harness.service.metrics.snapshot()["counters"]
            assert counters["flight.records"]["value"] == appended
            assert (
                counters["flight.dropped"]["value"] == flight.dropped
            )
        finally:
            harness.close()


class TestLibraryCorrelation:
    def test_engine_query_mints_and_echoes_q_ids(self, office_venue):
        engine = open_venue(office_venue)
        rooms = sorted(
            p.partition_id
            for p in office_venue.partitions()
            if p.kind.value == "room"
        )
        request = QueryRequest(
            clients=tuple(make_clients(office_venue, 10, seed=1)),
            facilities=facility_split(rooms, 3, 5),
        )
        first = engine.query(request)
        second = engine.query(request)
        assert first.request_id.startswith("q")
        assert second.request_id.startswith("q")
        assert first.request_id != second.request_id
        # Caller-provided ids pass through untouched.
        import dataclasses

        tagged = dataclasses.replace(request, request_id="mine")
        assert engine.query(tagged).request_id == "mine"

    def test_parallel_shards_carry_request_ids(self, office_engine):
        """workers=2: every absorbed shard span and per-query session
        span carries the submitting queries' correlation ids."""
        venue = office_engine.venue
        rooms = [
            p.partition_id
            for p in venue.partitions()
            if p.kind.value == "room"
        ]
        batch = [
            QueryRequest(
                tuple(make_clients(venue, 10, seed=60 + i)),
                facility_split(rooms, 3, 5, seed=60 + i),
                objective="minmax",
                label=f"p{i}",
                request_id=f"x{i}",
            )
            for i in range(4)
        ]
        session = office_engine.session()
        tracer = Tracer()
        with trace_module.use(tracer):
            session.run(batch, workers=2)
        spans = tracer.sorted_records()
        shard_spans = [
            s for s in spans if s.name == "parallel.shard"
        ]
        assert len(shard_spans) == 2
        shard_ids = sorted(
            rid
            for s in shard_spans
            for rid in s.attrs["request_ids"]
        )
        assert shard_ids == ["x0", "x1", "x2", "x3"]
        query_spans = [
            s for s in spans if s.name == "session.query"
        ]
        assert sorted(
            s.attrs["request_id"] for s in query_spans
        ) == ["x0", "x1", "x2", "x3"]
