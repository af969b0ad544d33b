"""In-process integration tests for the HTTP query service.

The service runs on its own event loop in a background thread; tests
speak real HTTP over localhost sockets.  Client requests run on the
test thread (or a dedicated client pool for the concurrency tests) —
never on the loop's default executor, which the service does not use
either (its flushes have a dedicated executor precisely so blocked
clients cannot starve them).
"""

import asyncio
import http.client
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    Client,
    FacilitySets,
    IFLSEngine,
    QueryRequest,
    QueryResponse,
    Rect,
    VenueBuilder,
    open_venue,
)
from repro.service import Coalescer, IFLSService
from tests.conftest import facility_split, make_clients


class ServiceHarness:
    """One IFLSService on a private event loop + HTTP helpers."""

    def __init__(self, engine, **overrides):
        overrides.setdefault("port", 0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.service = IFLSService(engine, **overrides)
        self.call(self.service.start())
        self.port = self.service.port

    def call(self, coro, timeout=60.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop
        ).result(timeout)

    def request(self, method, path, body=None, timeout=60.0):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            if isinstance(body, (dict, list)):
                body = json.dumps(body).encode("utf-8")
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def close(self):
        self.call(self.service.shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


class FlushGate:
    """Holds each coalesced flush before it solves, until released.

    Requests that arrive while a flush is held queue in the coalescer
    and share the next flush, as they do behind a long solve.
    ``batches`` lists each flush's request labels in order.
    """

    def __init__(self, service, timeout=30.0):
        self.coalescer = service.coalescer
        self.timeout = timeout
        self.batches = []
        self._entered = threading.Semaphore(0)
        self._go = threading.Semaphore(0)
        self._runner = runner = self.coalescer.runner

        def held(requests):
            self.batches.append([r.label for r in requests])
            self._entered.release()
            self._go.acquire(timeout=self.timeout)
            return runner(requests)

        self.coalescer.runner = held

    def wait_entered(self):
        """Block until the next flush reaches the runner."""
        assert self._entered.acquire(timeout=self.timeout)

    def wait_pending(self, count):
        """Block until ``count`` requests queue behind the held flush."""
        deadline = time.monotonic() + self.timeout
        while self.coalescer.pending < count:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.002)

    def release(self):
        """Let one held flush solve."""
        self._go.release()

    def remove(self):
        """Put the service's own runner back."""
        self.coalescer.runner = self._runner


@pytest.fixture(scope="module")
def rooms(office_venue):
    return sorted(
        p.partition_id for p in office_venue.partitions()
        if p.kind.value == "room"
    )


@pytest.fixture(scope="module")
def workload(office_venue, rooms):
    requests = []
    for i in range(10):
        requests.append(
            QueryRequest(
                clients=tuple(
                    make_clients(office_venue, 20, seed=500 + i)
                ),
                facilities=facility_split(rooms, 3, 6, seed=500 + i),
                objective=("minmax", "mindist", "maxsum")[i % 3],
                label=f"w{i}",
            )
        )
    return requests


@pytest.fixture(scope="module")
def oracle(office_venue, workload):
    """Serial cold answers the service must match bit-identically."""
    engine = IFLSEngine(office_venue)
    return [
        engine.query(
            r.clients, r.facilities, objective=r.objective, cold=True
        )
        for r in workload
    ]


@pytest.fixture(scope="module")
def harness(office_venue):
    h = ServiceHarness(open_venue(office_venue))
    yield h
    h.close()


class TestQueryEndpoint:
    def test_concurrent_clients_match_serial_oracle(
        self, harness, workload, oracle
    ):
        def post(request):
            return harness.request(
                "POST", "/query", request.to_payload()
            )

        with ThreadPoolExecutor(max_workers=8) as clients:
            outcomes = list(clients.map(post, workload))
        for (status, payload), want in zip(outcomes, oracle):
            assert status == 200
            response = QueryResponse.from_payload(payload)
            assert response.answer == want.answer
            assert response.objective_value == want.objective
            assert response.status == str(want.status)

    def test_malformed_json_is_400_protocol_error(self, harness):
        status, body = harness.request(
            "POST", "/query", body=b"{definitely not json"
        )
        assert status == 400
        assert body["error"] == "ProtocolError"
        assert body["status"] == 400

    def test_invalid_request_shape_is_400(self, harness):
        status, body = harness.request(
            "POST", "/query", {"clients": "nope"}
        )
        assert status == 400
        assert body["error"] == "ProtocolError"

    def test_non_efficient_algorithm_is_400(
        self, harness, workload
    ):
        payload = workload[0].to_payload()
        payload["algorithm"] = "baseline"
        status, body = harness.request("POST", "/query", payload)
        assert status == 400
        assert body["error"] == "QueryError"
        assert "efficient" in body["detail"]

    def test_tiny_timeout_is_504(self, harness, workload):
        payload = workload[0].to_payload()
        payload["timeout_seconds"] = 1e-6
        status, body = harness.request("POST", "/query", payload)
        assert status == 504
        assert body["error"] == "RequestTimeout"


class TestBatchEndpoint:
    def test_batch_preserves_request_order(
        self, harness, workload, oracle
    ):
        status, body = harness.request(
            "POST",
            "/batch",
            {"queries": [r.to_payload() for r in workload]},
        )
        assert status == 200
        responses = [
            QueryResponse.from_payload(p) for p in body["responses"]
        ]
        assert [r.label for r in responses] == [
            r.label for r in workload
        ]
        for response, want in zip(responses, oracle):
            assert response.answer == want.answer
            assert response.objective_value == want.objective

    def test_empty_batch_is_400(self, harness):
        status, body = harness.request("POST", "/batch", [])
        assert status == 400
        assert body["error"] == "ProtocolError"


class TestExplainEndpoint:
    def test_explained_query_stores_retrievable_report(
        self, harness, workload
    ):
        payload = workload[1].to_payload()
        payload["explain"] = True
        status, body = harness.request("POST", "/query", payload)
        assert status == 200
        explain_id = body["explain_id"]
        assert explain_id
        status, stored = harness.request(
            "GET", f"/explain/{explain_id}"
        )
        assert status == 200
        assert stored["explain_id"] == explain_id
        assert stored["report"]["answer"] == body["answer"]

    def test_unknown_explain_id_is_404(self, harness):
        status, body = harness.request("GET", "/explain/nosuch")
        assert status == 404
        assert body["error"] == "NotFound"


class TestIntrospection:
    def test_health_reports_identity(self, harness, office_venue):
        status, body = harness.request("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["venue"] == office_venue.name
        assert body["uptime_seconds"] >= 0.0
        assert isinstance(body["queries_answered"], int)

    def test_metrics_ledger_telescopes_to_responses(
        self, harness, workload
    ):
        """The /metrics merged ledger grows by exactly the sum of the
        per-response distance deltas — no drops, no double counts."""
        _, before = harness.request("GET", "/metrics")
        summed = {}
        for request in workload[:4]:
            status, payload = harness.request(
                "POST", "/query", request.to_payload()
            )
            assert status == 200
            for key, value in payload["distance_delta"].items():
                summed[key] = summed.get(key, 0) + value
        _, after = harness.request("GET", "/metrics")
        assert after["ledger_violations"] == []
        grown = {
            key: after["ledger"].get(key, 0)
            - before["ledger"].get(key, 0)
            for key in after["ledger"]
        }
        assert {k: v for k, v in grown.items() if v} == {
            k: v for k, v in summed.items() if v
        }

    def test_metrics_exports_contract_names(self, harness):
        status, body = harness.request("GET", "/metrics")
        assert status == 200
        metrics = body["metrics"]
        assert "service.requests" in metrics["counters"]
        assert "service.request.seconds" in metrics["histograms"]
        assert "service.batch.size" in metrics["histograms"]
        assert body["batcher"]["queries_answered"] >= 1
        assert body["pool"]["sessions"] == 1

    def test_health_and_metrics_answer_while_a_flush_is_held(
        self, office_venue, workload
    ):
        """Reads during a flush leave the busy session alone: /metrics
        reports the ledger of the last completed flush, /health the
        session as checked out with the memo bytes it holds."""
        harness = ServiceHarness(open_venue(office_venue))
        try:
            status, _ = harness.request(
                "POST", "/query", workload[0].to_payload()
            )
            assert status == 200
            _, before = harness.request("GET", "/metrics")
            gate = FlushGate(harness.service)
            with ThreadPoolExecutor(max_workers=1) as clients:
                held = clients.submit(
                    harness.request,
                    "POST",
                    "/query",
                    workload[1].to_payload(),
                )
                gate.wait_entered()
                health_status, health = harness.request("GET", "/health")
                status, metrics = harness.request("GET", "/metrics")
                gate.release()
                assert held.result(timeout=60.0)[0] == 200
        finally:
            harness.close()
        assert (health_status, status) == (200, 200)
        assert before["pool"]["cache_bytes"] > 0
        assert health["pool"] == {
            "sessions": 1,
            "idle": 0,
            "checked_out": 1,
            "cache_bytes": before["pool"]["cache_bytes"],
        }
        assert metrics["ledger_violations"] == []
        assert metrics["ledger"] == before["ledger"]

    def test_reads_race_flushes_without_errors(
        self, office_venue, workload
    ):
        """/health and /metrics polled while concurrent queries flush:
        every read answers 200 with a clean ledger, and the final
        ledger telescopes to the responses."""
        harness = ServiceHarness(open_venue(office_venue))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            done = threading.Event()
            reads = []

            def poll():
                while not done.is_set():
                    for path in ("/health", "/metrics"):
                        reads.append(harness.request("GET", path))

            def post(request):
                return harness.request(
                    "POST", "/query", request.to_payload()
                )

            pollers = [threading.Thread(target=poll) for _ in range(2)]
            for thread in pollers:
                thread.start()
            try:
                with ThreadPoolExecutor(max_workers=8) as clients:
                    outcomes = list(clients.map(post, workload * 2))
            finally:
                done.set()
                for thread in pollers:
                    thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in pollers)
            _, final = harness.request("GET", "/metrics")
        finally:
            sys.setswitchinterval(interval)
            harness.close()
        assert all(status == 200 for status, _ in outcomes)
        assert reads and all(status == 200 for status, _ in reads)
        for _status, body in reads:
            assert body.get("ledger_violations", []) == []
        summed = {}
        for _status, payload in outcomes:
            for key, value in payload["distance_delta"].items():
                summed[key] = summed.get(key, 0) + value
        assert {k: v for k, v in final["ledger"].items() if v} == {
            k: v for k, v in summed.items() if v
        }


class TestRouting:
    def test_unknown_route_is_404(self, harness):
        status, body = harness.request("GET", "/nope")
        assert status == 404
        assert body["error"] == "NotFound"

    def test_wrong_method_is_405(self, harness):
        for method, path in (
            ("GET", "/query"),
            ("GET", "/batch"),
            ("POST", "/metrics"),
            ("POST", "/health"),
        ):
            status, body = harness.request(method, path)
            assert status == 405, (method, path)
            assert body["error"] == "MethodNotAllowed"


class TestFlushIsolation:
    def test_failed_solve_fails_only_its_own_request(self):
        """A query whose solve raises inside a coalesced flush gets its
        own error; its co-batched strangers get their own answers."""
        builder = VenueBuilder("islands")
        a1 = builder.add_room(Rect(0, 0, 5, 5))
        a2 = builder.add_room(Rect(5, 0, 10, 5))
        builder.connect(a1, a2)
        b1 = builder.add_room(Rect(20, 0, 25, 5))
        b2 = builder.add_room(Rect(25, 0, 30, 5))
        builder.connect(b1, b2)
        venue = builder.build(validate=False)  # two islands on purpose
        clients = (Client(0, venue.partition(a1).center, a1),)
        good = QueryRequest(
            clients=clients,
            facilities=FacilitySets(frozenset(), frozenset({a2})),
        )
        unreachable = QueryRequest(
            clients=clients,
            facilities=FacilitySets(frozenset({b1}), frozenset({b2})),
        )
        harness = ServiceHarness(open_venue(venue))
        try:
            def post(request):
                return harness.request(
                    "POST", "/query", request.to_payload()
                )

            alone_status, alone = post(good)
            assert alone_status == 200
            assert alone["objective_value"] == 2.5
            # Hold a first flush so the three queue behind it and share
            # the next one; read the count once that flush is in.
            gate = FlushGate(harness.service)
            with ThreadPoolExecutor(max_workers=4) as pool:
                first = pool.submit(post, good)
                gate.wait_entered()
                trio = [
                    pool.submit(post, request)
                    for request in (good, unreachable, good)
                ]
                gate.wait_pending(3)
                gate.release()
                gate.wait_entered()
                flushed = harness.service.coalescer.batches_flushed
                gate.release()
                assert first.result(timeout=60.0)[0] == 200
                outcomes = [f.result(timeout=60.0) for f in trio]
            assert len(gate.batches[-1]) == 3
            assert [status for status, _ in outcomes] == [200, 400, 200]
            assert harness.service.coalescer.batches_flushed == flushed + 1
            assert outcomes[1][1]["error"] == "UnreachableFacilityError"
            for _status, payload in (outcomes[0], outcomes[2]):
                for key in ("answer", "objective_value", "status"):
                    assert payload[key] == alone[key]
        finally:
            harness.close()


class TestQueuedTimeout:
    def test_request_timed_out_in_queue_is_not_solved(self, workload):
        """A request whose caller timed out while it queued behind a
        flush is dropped from the next flush and never counted."""
        solved = []
        entered = threading.Event()
        release = threading.Event()

        def runner(requests):
            solved.append([r.label for r in requests])
            entered.set()
            release.wait(timeout=30.0)
            return [r.label for r in requests]

        async def scenario(coalescer):
            first = asyncio.ensure_future(coalescer.submit(workload[0]))
            assert await asyncio.to_thread(entered.wait, 30.0)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    coalescer.submit(workload[1]), 0.01
                )
            release.set()
            assert await first == workload[0].label
            await coalescer.drain()

        with ThreadPoolExecutor(max_workers=1) as executor:
            coalescer = Coalescer(runner, executor=executor)
            asyncio.run(scenario(coalescer))
        assert solved == [[workload[0].label]]
        assert coalescer.queries_answered == 1
        assert coalescer.batches_flushed == 1


class TestPressureEviction:
    def test_no_budget_means_no_eviction(self, office_venue, workload):
        harness = ServiceHarness(open_venue(office_venue))
        try:
            status, _ = harness.request(
                "POST", "/query", workload[2].to_payload()
            )
            assert status == 200
            _, health = harness.request("GET", "/health")
            _, metrics = harness.request("GET", "/metrics")
        finally:
            harness.close()
        assert health["pool"]["cache_bytes"] > 0
        assert "cache.evictions" not in metrics["metrics"]["counters"]
        assert harness.service.session.cache_entries > 0

    def test_entry_budget_bounds_resident_session(
        self, office_venue, workload, oracle
    ):
        """``max_cache_entries=N`` holds the resident session to N memo
        entries across flushes, evicting entry by entry, with a clean
        ledger and the oracle's answers."""
        budget = 40
        harness = ServiceHarness(
            open_venue(office_venue), max_cache_entries=budget
        )
        try:
            outcomes = [
                harness.request("POST", "/query", request.to_payload())
                for request in workload[:6]
            ]
            _, metrics = harness.request("GET", "/metrics")
        finally:
            harness.close()
        for (status, payload), want in zip(outcomes, oracle):
            assert status == 200
            assert (payload["answer"], payload["objective_value"]) == (
                want.answer, want.objective
            )
        session = harness.service.session
        assert session.distances.max_cache_entries == budget
        assert 0 < session.cache_entries <= budget
        assert metrics["ledger_violations"] == []
        assert metrics["ledger"]["cache_evictions"] > 0
        counters = metrics["metrics"]["counters"]
        assert counters["cache.evictions"]["value"] == (
            metrics["ledger"]["cache_evictions"]
        )


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_requests(
        self, office_venue, workload, oracle
    ):
        """Queries accepted before shutdown still get correct answers;
        the ledger survives the drain clean."""
        harness = ServiceHarness(open_venue(office_venue))
        gate = FlushGate(harness.service)
        try:
            def post(request):
                return harness.request(
                    "POST", "/query", request.to_payload()
                )

            with ThreadPoolExecutor(max_workers=6) as clients:
                futures = [clients.submit(post, workload[0])]
                # Hold the first flush so the other five queue, then
                # drain while they are still pending.
                gate.wait_entered()
                futures += [
                    clients.submit(post, r) for r in workload[1:6]
                ]
                gate.wait_pending(5)
                shutdown = asyncio.run_coroutine_threadsafe(
                    harness.service.shutdown(), harness.loop
                )
                gate.release()
                gate.wait_entered()
                gate.release()
                shutdown.result(timeout=60.0)
                outcomes = [f.result(timeout=60.0) for f in futures]
            for (status, payload), want in zip(outcomes, oracle):
                assert status == 200
                assert payload["answer"] == want.answer
            assert (
                harness.service.metrics_payload()["ledger_violations"]
                == []
            )
            assert (
                harness.service.coalescer.queries_answered == 6
            )
            with pytest.raises(OSError):
                harness.request("GET", "/health", timeout=2.0)
        finally:
            harness.loop.call_soon_threadsafe(harness.loop.stop)
            harness.thread.join(timeout=10.0)
            harness.loop.close()
