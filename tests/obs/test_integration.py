"""End-to-end observability: real queries against the contract.

Every span/metric name a real traced run emits must be registered in
:mod:`repro.obs.contract` (the subset relation the documentation
promises), and sharded parallel collection must merge to the same
deterministic totals as a serial run.
"""

import pytest

from repro import (
    IFLSEngine,
    MetricsRegistry,
    QueryRequest,
    QuerySession,
    Tracer,
    observe,
)
from repro.obs import contract

from ..conftest import build_corridor_venue, facility_split, make_clients


@pytest.fixture(scope="module")
def setup():
    venue, room_ids, _ = build_corridor_venue(rooms=12)
    engine = IFLSEngine(venue)
    clients = make_clients(venue, 30, seed=5)
    facilities = facility_split(room_ids, 2, 4)
    return engine, clients, facilities


def span_names(tracer):
    return {record.name for record in tracer.records}


def metric_names(registry):
    snapshot = registry.snapshot()
    return (
        set(snapshot["counters"])
        | set(snapshot["gauges"])
        | set(snapshot["histograms"])
    )


class TestContractSubset:
    def test_index_build_spans(self):
        venue, _, _ = build_corridor_venue(rooms=6)
        with observe() as (tracer, registry):
            engine = IFLSEngine(venue)
        expected = {
            "index.build", "index.build.nodes", "index.build.matrices",
        }
        if engine.use_kernels:
            expected.add("index.kernels.pack")
        assert span_names(tracer) == expected
        assert "index.build.seconds" in metric_names(registry)
        if engine.use_kernels:
            assert "index.kernels.pack.seconds" in metric_names(registry)

    def test_efficient_query_emits_contract_names_only(self, setup):
        engine, clients, facilities = setup
        with observe() as (tracer, registry):
            engine.query(clients, facilities)
        names = span_names(tracer)
        assert names <= set(contract.SPANS)
        assert {"query.efficient.minmax", "ea.prephase",
                "ea.stream"} <= names
        assert metric_names(registry) <= set(contract.METRICS)
        assert registry.counter("query.count").value == 1
        assert registry.histogram("query.clients").total == 30

    def test_baseline_query_spans(self, setup):
        engine, clients, facilities = setup
        with observe() as (tracer, registry):
            engine.query(clients, facilities, algorithm="baseline")
        names = span_names(tracer)
        assert names <= set(contract.SPANS)
        assert {
            "query.baseline.minmax", "baseline.nearest_existing",
            "baseline.refine", "baseline.finalize",
        } <= names

    @pytest.mark.parametrize("objective", ["mindist", "maxsum"])
    def test_objective_variants_traced(self, setup, objective):
        engine, clients, facilities = setup
        with observe() as (tracer, _):
            engine.query(clients, facilities, objective=objective)
        assert f"query.efficient.{objective}" in span_names(tracer)

    def test_query_span_carries_counter_deltas(self, setup):
        engine, clients, facilities = setup
        with observe() as (tracer, _):
            engine.query(clients, facilities)
        (query_span,) = [
            r for r in tracer.records
            if r.name == "query.efficient.minmax"
        ]
        assert query_span.counters  # distance work was attributed
        assert query_span.attrs["clients"] == 30

    def test_results_identical_with_and_without_observability(
        self, setup
    ):
        engine, clients, facilities = setup
        plain = engine.query(clients, facilities, cold=True)
        with observe():
            traced = engine.query(clients, facilities, cold=True)
        assert traced.answer == plain.answer
        assert traced.objective == pytest.approx(plain.objective)


class TestSessionIntegration:
    def test_session_ctor_collectors(self, setup):
        engine, clients, facilities = setup
        tracer, registry = Tracer(), MetricsRegistry()
        session = QuerySession(engine, trace=tracer, metrics=registry)
        session.query(clients, facilities)
        assert "session.query" in span_names(tracer)
        assert registry.counter("query.count").value == 1
        assert registry.gauge("cache.entries").value > 0

    def test_session_query_wraps_solver_span(self, setup):
        engine, clients, facilities = setup
        tracer = Tracer()
        session = QuerySession(engine, trace=tracer)
        session.query(clients, facilities, label="probe")
        records = {r.name: r for r in tracer.sorted_records()}
        solver = records["query.efficient.minmax"]
        parent = records["session.query"]
        assert solver.parent == parent.index
        assert parent.attrs["label"] == "probe"


class TestParallelIntegration:
    def _batch(self, clients, facilities, size=4):
        return [
            QueryRequest(clients, facilities, label=f"q{i}")
            for i in range(size)
        ]

    def test_parallel_spans_absorbed_under_run(self, setup):
        engine, clients, facilities = setup
        batch = self._batch(clients, facilities)
        with observe() as (tracer, registry):
            session = engine.session()
            results = session.run(batch, workers=2)
        assert len(results) == 4
        names = span_names(tracer)
        assert names <= set(contract.SPANS)
        assert {"parallel.run", "parallel.prepare", "parallel.shard",
                "parallel.merge"} <= names
        records = {r.index: r for r in tracer.records}
        run_span = [
            r for r in tracer.records if r.name == "parallel.run"
        ][0]
        shards = [
            r for r in tracer.records if r.name == "parallel.shard"
        ]
        assert len(shards) == 2
        for shard in shards:
            assert shard.parent == run_span.index
        # Worker session.query spans hang off their shard span.
        for record in tracer.records:
            if record.name == "session.query":
                assert records[record.parent].name == "parallel.shard"
        assert registry.counter("parallel.shards").value == 2
        assert registry.gauge("parallel.workers").value == 2

    def test_parallel_metrics_merge_equals_serial(self, setup):
        """Deterministic metrics agree between 1 and 2 workers."""
        engine, clients, facilities = setup
        batch = self._batch(clients, facilities)

        with observe() as (_, serial):
            engine.session().run(batch, workers=1)
        with observe() as (_, sharded):
            engine.session().run(batch, workers=2)

        for name in ("query.count", "query.improved"):
            assert (
                sharded.counter(name).value
                == serial.counter(name).value
            )
        serial_clients = serial.histogram("query.clients")
        sharded_clients = sharded.histogram("query.clients")
        assert sharded_clients.count == serial_clients.count
        assert sharded_clients.total == serial_clients.total

    def test_parallel_answers_unchanged_when_observed(self, setup):
        engine, clients, facilities = setup
        batch = self._batch(clients, facilities)
        plain = engine.session().run(batch, workers=2)
        with observe():
            observed = engine.session().run(batch, workers=2)
        assert [r.answer for r in observed] == [
            r.answer for r in plain
        ]
