"""QueryRequest/QueryResponse: validation, codec, executor boundary."""

import pytest

from repro import (
    EfficientOptions,
    IFLSEngine,
    QueryRequest,
    QueryResponse,
    TOP_DOWN,
    run_batch_parallel,
)
from repro.core import parallel as parallel_module
from repro.datasets import small_office
from repro.errors import ProtocolError, QueryError
from tests.conftest import facility_split, make_clients


@pytest.fixture(scope="module")
def office():
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    return venue, engine, rooms


def _request(venue, rooms, seed=0, **kwargs):
    return QueryRequest(
        clients=tuple(make_clients(venue, 8, seed=seed)),
        facilities=facility_split(rooms, 3, 5, seed=seed),
        **kwargs,
    )


class TestValidation:
    def test_unknown_objective_rejected(self, office):
        venue, _engine, rooms = office
        with pytest.raises(QueryError):
            _request(venue, rooms, objective="fastest")

    def test_unknown_algorithm_rejected(self, office):
        venue, _engine, rooms = office
        with pytest.raises(QueryError):
            _request(venue, rooms, algorithm="magic")

    def test_unknown_traversal_rejected(self, office):
        venue, _engine, rooms = office
        with pytest.raises(QueryError):
            _request(venue, rooms, traversal="sideways")

    def test_nonpositive_timeout_rejected(self, office):
        venue, _engine, rooms = office
        with pytest.raises(QueryError):
            _request(venue, rooms, timeout_seconds=0.0)

    def test_clients_coerced_to_tuple(self, office):
        venue, _engine, rooms = office
        request = QueryRequest(
            clients=make_clients(venue, 4, seed=1),
            facilities=facility_split(rooms, 2, 4, seed=1),
        )
        assert isinstance(request.clients, tuple)


class TestOptionsBridge:
    def test_all_default_request_resolves_to_none(self, office):
        """Fully-default requests must take the legacy options=None
        path so cold counters stay bit-identical."""
        venue, _engine, rooms = office
        assert _request(venue, rooms).options() is None

    def test_ablation_fields_resolve_to_options(self, office):
        venue, _engine, rooms = office
        request = _request(
            venue, rooms, prune_clients=False, traversal=TOP_DOWN
        )
        options = request.options()
        assert isinstance(options, EfficientOptions)
        assert options.prune_clients is False
        assert options.traversal == TOP_DOWN

    def test_to_batch_query_rejects_non_efficient(
        self, office, monkeypatch
    ):
        venue, engine, rooms = office
        batch = [
            _request(venue, rooms, seed=3),
            _request(venue, rooms, algorithm="baseline"),
        ]
        _assert_rejected_before_any_pool(engine, batch, monkeypatch)


class TestWireCodec:
    def test_request_payload_round_trip(self, office):
        venue, _engine, rooms = office
        request = _request(
            venue, rooms, seed=2, objective="maxsum", label="rt",
            prune_clients=False, timeout_seconds=5.0, explain=True,
        )
        again = QueryRequest.from_payload(request.to_payload())
        assert again == request

    def test_default_fields_stay_off_the_wire(self, office):
        venue, _engine, rooms = office
        payload = _request(venue, rooms).to_payload()
        for key in ("algorithm", "label", "prune_clients",
                    "traversal", "timeout_seconds", "explain"):
            assert key not in payload

    def test_from_payload_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            QueryRequest.from_payload([1, 2, 3])

    def test_from_payload_rejects_malformed_clients(self):
        with pytest.raises(ProtocolError):
            QueryRequest.from_payload(
                {"clients": [{"id": "x"}], "existing": [],
                 "candidates": []}
            )

    def test_from_payload_wraps_validation_errors(self, office):
        venue, _engine, rooms = office
        payload = _request(venue, rooms).to_payload()
        payload["objective"] = "fastest"
        with pytest.raises(ProtocolError):
            QueryRequest.from_payload(payload)

    def test_response_payload_round_trip(self):
        response = QueryResponse(
            answer=17,
            objective_value=45.5,
            status="OPTIMAL",
            objective="minmax",
            label="rt",
            elapsed_seconds=0.25,
            index=3,
            explain_id="q7",
            distance_delta={"distance_computations": 12},
        )
        again = QueryResponse.from_payload(response.to_payload())
        assert again == response

    def test_response_from_payload_rejects_missing_fields(self):
        with pytest.raises(ProtocolError):
            QueryResponse.from_payload({"answer": 1})


def _no_pool(*_args, **_kwargs):
    raise AssertionError("a process pool started for a rejected batch")


def _assert_rejected_before_any_pool(engine, batch, monkeypatch):
    """Both batch executors refuse ``batch`` with a plain QueryError
    (not a shard's ParallelExecutionError) before a pool starts."""
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _no_pool)
    for run in (
        lambda: engine.session().run(batch, workers=2),
        lambda: run_batch_parallel(engine, batch, 2),
    ):
        with pytest.raises(QueryError) as err:
            run()
        assert type(err.value) is QueryError


class TestExecutorBridges:
    def test_as_batch_queries_rejects_foreign_items(
        self, office, monkeypatch
    ):
        venue, engine, rooms = office
        batch = [_request(venue, rooms, seed=3), "not-a-query"]
        _assert_rejected_before_any_pool(engine, batch, monkeypatch)

    def test_session_run_accepts_requests(self, office):
        venue, engine, rooms = office
        request = _request(venue, rooms, seed=4)
        want = engine.query(
            request.clients, request.facilities, cold=True
        )
        session = engine.session()
        got = session.run([request])[0]
        assert (got.answer, got.objective) == (
            want.answer, want.objective
        )

    def test_take_records_drains_but_keeps_totals(self, office):
        venue, engine, rooms = office
        session = engine.session()
        session.run([_request(venue, rooms, seed=5)])
        taken = session.take_records()
        assert len(taken) == 1
        assert session.records == []
        assert session.queries_answered == 1
        # Ledger keeps accumulating; only the record list drained.
        assert sum(session.report().totals.values()) > 0

