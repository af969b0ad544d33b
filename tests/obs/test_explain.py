"""EXPLAIN profiler: reports, renderings, and attribution exactness.

The text rendering is pinned by a golden file (``data/`` next to this
module) on a fully deterministic workload: ``timings=False`` swaps
every wall-time figure for ``-``, and everything else in a report —
counters, bound evolution, visit profile — is a pure function of the
seeded inputs.  Regenerate after an intentional change with::

    PYTHONPATH=src python -m tests.obs.test_explain --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro import FacilitySets, IFLSEngine, QueryRequest
from repro.index.distance import DistanceStats
from repro.obs import profile as profile_module
from repro.obs.explain import (
    DISTANCE_COUNTER_KEYS,
    EXPLAIN_CSV_COLUMNS,
    EXPLAIN_SCHEMA,
    read_explain_csv,
    read_explain_json,
    write_explain_csv,
    write_explain_json,
)
from repro.obs.profile import BoundStep, ProfileCollector
from repro.errors import QueryError

from ..conftest import build_corridor_venue, facility_split, make_clients

GOLDEN = Path(__file__).parent / "data" / "explain_corridor.txt"
#: Further pinned renders, keyed ``(query, objective)``: the Section 7
#: objectives on the corridor query, and every objective on a variant
#: with no existing facility and one candidate, whose queue runs dry
#: (pinning the bound samples taken on queue exhaustion).
EXTRA_GOLDENS = {
    (query, objective): GOLDEN.with_name(f"explain_{query}_{objective}.txt")
    for query, objectives in (
        ("corridor", ("mindist", "maxsum")),
        ("exhausted", ("minmax", "mindist", "maxsum")),
    )
    for objective in objectives
}


@pytest.fixture(scope="module")
def setup():
    venue, room_ids, _ = build_corridor_venue(rooms=12)
    engine = IFLSEngine(venue)
    clients = make_clients(venue, 30, seed=5)
    facilities = facility_split(room_ids, 2, 4)
    return engine, clients, facilities


def _golden_report(setup, objective="minmax", query="corridor"):
    # Pinned to the scalar distance path: kernelized runs report
    # different memo-traffic counters (by design), and the golden must
    # stay byte-stable whether or not numpy/IFLS_USE_KERNELS enable
    # the array kernels.
    engine, clients, facilities = setup
    if query == "exhausted":
        facilities = FacilitySets(
            frozenset(), frozenset({min(facilities.candidates)})
        )
    scalar = IFLSEngine(
        engine.venue, tree=engine.tree, use_kernels=False
    )
    return scalar.explain(
        clients, facilities, objective=objective, label="golden",
        cold=True,
    )


def _attribution_ok(report):
    ledger = {
        key: value
        for key, value in report.distance_totals.items()
        if value
    }
    return report.attributed_counters() == ledger


class TestEngineExplain:
    def test_rejects_unknown_objective(self, setup):
        engine, clients, facilities = setup
        with pytest.raises(QueryError):
            engine.explain(clients, facilities, objective="median")

    def test_rejects_bruteforce(self, setup):
        engine, clients, facilities = setup
        with pytest.raises(QueryError, match="explain supports"):
            engine.explain(
                clients, facilities, algorithm="bruteforce"
            )

    def test_report_matches_plain_query(self, setup):
        engine, clients, facilities = setup
        report = _golden_report(setup)
        result = engine.query(clients, facilities, cold=True)
        assert report.answer == result.answer
        assert report.objective_value == result.objective
        assert report.status == str(result.status)
        assert report.clients_total == len(clients)

    @pytest.mark.parametrize(
        "objective", ["minmax", "mindist", "maxsum"]
    )
    def test_attribution_sums_to_ledger(self, setup, objective):
        engine, clients, facilities = setup
        report = engine.explain(
            clients, facilities, objective=objective, cold=True
        )
        assert _attribution_ok(report)

    def test_baseline_attribution(self, setup):
        engine, clients, facilities = setup
        report = engine.explain(
            clients, facilities, algorithm="baseline", cold=True
        )
        assert report.algorithm == "baseline"
        assert _attribution_ok(report)
        names = [phase.name for phase in report.phases]
        assert names[0] == "explain.query"
        assert "query.baseline.minmax" in names

    def test_bound_evolution_recorded(self, setup):
        report = _golden_report(setup)
        assert report.bound_rounds >= len(report.bound_steps) > 0
        # Gd never decreases while streaming; only the final sample
        # (the refined answer bound) may fall below the last Gd.
        bounds = [step.bound for step in report.bound_steps[:-1]]
        assert bounds == sorted(bounds)
        last = report.bound_steps[-1]
        assert last.pruned == report.clients_pruned

    def test_node_visits_by_level(self, setup):
        report = _golden_report(setup)
        assert report.node_visits  # the stream expanded nodes
        for visit in report.node_visits.values():
            assert visit["nodes"] > 0
            assert visit["access_doors"] >= 0

    def test_profiler_not_left_installed(self, setup):
        _golden_report(setup)
        assert profile_module.active() is None


class TestGoldenText:
    def test_text_tree_matches_golden(self, setup):
        rendered = _golden_report(setup).describe(timings=False)
        assert GOLDEN.is_file(), (
            "golden file missing; regenerate with PYTHONPATH=src "
            "python -m tests.obs.test_explain --regen"
        )
        assert rendered + "\n" == GOLDEN.read_text()

    @pytest.mark.parametrize("query, objective", list(EXTRA_GOLDENS))
    def test_more_text_trees_match_golden(self, setup, query, objective):
        golden = EXTRA_GOLDENS[query, objective]
        rendered = _golden_report(setup, objective, query).describe(
            timings=False
        )
        assert golden.is_file(), (
            "golden file missing; regenerate with PYTHONPATH=src "
            "python -m tests.obs.test_explain --regen"
        )
        assert rendered + "\n" == golden.read_text()

    def test_timings_mode_adds_wall_times(self, setup):
        rendered = _golden_report(setup).describe(timings=True)
        assert "ms" in rendered
        assert "time:" in rendered


class TestSerialisation:
    def test_json_roundtrip(self, setup, tmp_path):
        report = _golden_report(setup)
        path = tmp_path / "explain.json"
        write_explain_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == EXPLAIN_SCHEMA
        loaded = read_explain_json(path)
        assert loaded.to_dict() == report.to_dict()
        assert _attribution_ok(loaded)

    def test_json_rejects_unknown_schema(self, setup, tmp_path):
        report = _golden_report(setup)
        payload = report.to_dict()
        payload["schema"] = 99
        path = tmp_path / "explain.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            read_explain_json(path)

    def test_infinite_bound_survives_json(self, tmp_path):
        step = BoundStep(3, float("inf"), 5, 7)
        assert step.to_dict()["bound"] is None
        assert BoundStep.from_dict(step.to_dict()) == step

    def test_csv_columns_sum_to_ledger(self, setup, tmp_path):
        report = _golden_report(setup)
        path = tmp_path / "explain.csv"
        rows_written = write_explain_csv(report, path)
        rows = read_explain_csv(path)
        assert rows_written == len(rows) == len(report.phases)
        assert set(rows[0]) == set(EXPLAIN_CSV_COLUMNS)
        for key in DISTANCE_COUNTER_KEYS:
            column_sum = sum(row[key] for row in rows)
            assert column_sum == report.distance_totals.get(key, 0)


    def test_counter_keys_are_the_full_ledger(self):
        assert DISTANCE_COUNTER_KEYS == tuple(DistanceStats().snapshot())

    def test_kernel_path_shows_kernel_batches(self, setup, tmp_path):
        pytest.importorskip("numpy")
        engine, clients, facilities = setup
        kernel = IFLSEngine(engine.venue, tree=engine.tree, use_kernels=True)
        report = kernel.explain(clients, facilities, cold=True)
        batches = report.distance_totals["kernel_batches"]
        assert batches > 0
        path = tmp_path / "explain.csv"
        write_explain_csv(report, path)
        rows = read_explain_csv(path)
        assert sum(row["kernel_batches"] for row in rows) == batches
        assert "kernel_batches" in report.describe(timings=False)


class TestBoundSampling:
    def test_bound_limit_validation(self):
        with pytest.raises(ValueError):
            ProfileCollector(bound_limit=1)

    def test_collapse_and_truncation(self):
        collector = ProfileCollector(bound_limit=4)
        collector.bound_step(0.0, 10, 0)
        collector.bound_step(0.0, 10, 0)  # collapsed
        assert len(collector.bound_steps) == 1
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            collector.bound_step(value, 10, 0)
        assert len(collector.bound_steps) == 4
        assert collector.bound_steps_dropped == 2
        # Both ends survive: the first sample and the latest one.
        assert collector.bound_steps[0].bound == 0.0
        assert collector.bound_steps[-1].bound == 5.0
        assert collector.bound_rounds == 7  # collapsed rounds count

    def test_engine_explain_honours_bound_limit(self, setup):
        engine, clients, facilities = setup
        report = engine.explain(
            clients, facilities, cold=True, bound_limit=2
        )
        assert len(report.bound_steps) <= 2
        full = _golden_report(setup)
        if len(full.bound_steps) > 2:
            assert report.bound_steps_dropped > 0


class TestSessionAndParallel:
    def _batch(self, setup, count=4, explain=(True, True, True, True)):
        engine, clients, facilities = setup
        venue = engine.venue
        batch = []
        for i in range(count):
            batch.append(
                QueryRequest(
                    tuple(make_clients(venue, 20, seed=20 + i)),
                    facilities,
                    objective=("minmax", "mindist")[i % 2],
                    label=f"q{i + 1}",
                    explain=explain[i],
                )
            )
        return batch

    def test_session_explain_mode(self, setup):
        engine, _, _ = setup
        session = engine.session()
        batch = self._batch(setup)
        results = session.run(batch)
        assert [r.explain.label for r in results] == [
            "q1", "q2", "q3", "q4"
        ]
        for result in results:
            report = result.explain
            assert _attribution_ok(report)
            assert report.cache_entries is not None

    def test_serial_vs_parallel_attribution_equivalence(self, setup):
        """Counter attribution is scheduling-independent where it can be.

        Query 1 runs first on a fresh warm session in both modes, so
        its full report (ledger and per-phase attribution) must agree
        exactly; every parallel report must satisfy the attribution
        invariant regardless of which worker answered it.
        """
        engine, _, _ = setup
        batch = self._batch(setup)
        serial_results = engine.session().run(batch)
        parallel_results = engine.session().run(batch, workers=2)
        reports = [result.explain for result in parallel_results]
        assert len(reports) == len(batch)
        assert [r.label for r in reports] == ["q1", "q2", "q3", "q4"]
        serial_reports = [result.explain for result in serial_results]
        for serial, parallel in zip(serial_reports, reports):
            assert parallel.answer == serial.answer
            assert parallel.objective_value == serial.objective_value
            assert _attribution_ok(parallel)
        first_serial = serial_reports[0]
        first_parallel = reports[0]
        assert (
            first_parallel.distance_totals
            == first_serial.distance_totals
        )
        assert (
            first_parallel.attributed_counters()
            == first_serial.attributed_counters()
        )

    def test_parallel_without_explain_returns_no_reports(self, setup):
        engine, _, _ = setup
        batch = self._batch(setup, explain=(False,) * 4)
        results = engine.session().run(batch, workers=2)
        assert [r.explain for r in results] == [None] * 4

    def test_request_flag_explains_on_serial_and_parallel(self, setup):
        """Only requests with ``explain=True`` come back with a report,
        serially and sharded alike, and each report's per-phase
        attribution sums exactly to its own result's ledger."""
        engine, _, _ = setup
        batch = self._batch(setup, explain=(True, False, True, False))
        paths = {
            "serial": engine.session().run(batch),
            "parallel": engine.session().run(batch, workers=2),
        }
        for results in paths.values():
            for result in (results[0], results[2]):
                ledger = {
                    key: value
                    for key, value in (
                        result.stats.distance.snapshot().items()
                    )
                    if value
                }
                assert result.explain.attributed_counters() == ledger
            assert results[1].explain is None
            assert results[3].explain is None
        serial, parallel = (
            paths["serial"][0].explain, paths["parallel"][0].explain
        )
        assert parallel.distance_totals == serial.distance_totals
        assert (
            parallel.attributed_counters()
            == serial.attributed_counters()
        )


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit(
            "usage: PYTHONPATH=src python -m tests.obs.test_explain "
            "--regen"
        )
    venue, room_ids, _ = build_corridor_venue(rooms=12)
    engine = IFLSEngine(venue)
    clients = make_clients(venue, 30, seed=5)
    facilities = facility_split(room_ids, 2, 4)
    goldens = {("corridor", "minmax"): GOLDEN, **EXTRA_GOLDENS}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    for (query, objective), path in goldens.items():
        report = _golden_report(
            (engine, clients, facilities), objective, query
        )
        path.write_text(report.describe(timings=False) + "\n")
        print(f"wrote {path}")
