"""Perf-regression sentinel: recording, gating, and drift detection.

The real suites spawn process pools and answer dozens of queries, so
these tests register a tiny deterministic fake suite in
:data:`repro.bench.regress.SUITES` (restored afterwards) and drive
record/compare through it; one slow-marked smoke test exercises the
committed ``small`` suite end to end against ``BENCH_small.json``.
"""

import json
from pathlib import Path

import pytest

from repro.bench import regress
from repro.bench.regress import (
    Baseline,
    compare_to_baseline,
    gate,
    load_baseline,
    record_baseline,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def fake_suite(monkeypatch):
    """A deterministic two-exact/one-wall suite named ``tiny``."""
    calls = {"count": 0}

    def build():
        calls["count"] += 1
        return {
            "tiny.counter": (42.0, regress.EXACT),
            "tiny.other": (7.0, regress.EXACT),
            "tiny.seconds": (0.5, regress.WALL),
        }

    monkeypatch.setitem(regress.SUITES, "tiny", build)
    return calls


class TestRecording:
    def test_record_medians_and_provenance(self, fake_suite, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        baseline = record_baseline("tiny", runs=3, path=path)
        assert fake_suite["count"] == 3
        assert baseline.suite == "tiny"
        assert baseline.runs == 3
        assert baseline.metrics["tiny.counter"] == (42.0, regress.EXACT)
        assert baseline.fingerprint == regress.machine_fingerprint()
        loaded = load_baseline(path)
        assert loaded.to_dict() == baseline.to_dict()

    def test_record_refuses_exact_metric_differing_between_runs(
        self, monkeypatch, tmp_path
    ):
        """A suite that does not repeat cannot be gated at zero
        tolerance; a median would hide it, so recording refuses."""
        values = iter([42.0, 43.0, 42.0])

        def build():
            return {
                "flaky.counter": (next(values), regress.EXACT),
                "flaky.seconds": (0.5, regress.WALL),
            }

        monkeypatch.setitem(regress.SUITES, "flaky", build)
        path = tmp_path / "BENCH_flaky.json"
        with pytest.raises(ValueError, match="flaky.counter"):
            record_baseline("flaky", runs=3, path=path)
        assert not path.exists()

    def test_wall_metrics_may_vary_between_runs(self, monkeypatch):
        seconds = iter([0.4, 0.9, 0.5])

        def build():
            return {
                "steady.counter": (1.0, regress.EXACT),
                "steady.seconds": (next(seconds), regress.WALL),
            }

        monkeypatch.setitem(regress.SUITES, "steady", build)
        baseline = record_baseline("steady", runs=3)
        assert baseline.metrics["steady.seconds"] == (0.5, regress.WALL)

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            regress.run_suite("no-such-suite")

    def test_baseline_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "suite": "x"}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)


class TestComparison:
    def _baseline(self, **overrides):
        metrics = {
            "tiny.counter": (42.0, regress.EXACT),
            "tiny.other": (7.0, regress.EXACT),
            "tiny.seconds": (0.5, regress.WALL),
        }
        metrics.update(overrides)
        return Baseline(
            suite="tiny",
            runs=1,
            created="",
            git_sha=None,
            fingerprint=regress.machine_fingerprint(),
            metrics=metrics,
        )

    def _current(self, **overrides):
        current = {
            "tiny.counter": (42.0, regress.EXACT),
            "tiny.other": (7.0, regress.EXACT),
            "tiny.seconds": (0.5, regress.WALL),
        }
        current.update(overrides)
        return current

    def test_clean_comparison_passes(self):
        report = compare_to_baseline(self._baseline(), self._current())
        assert report.passed
        assert report.fingerprint_match
        assert "PASS" in report.describe()

    def test_exact_counter_has_zero_tolerance(self):
        current = self._current(
            **{"tiny.counter": (43.0, regress.EXACT)}
        )
        report = compare_to_baseline(self._baseline(), current)
        assert not report.passed
        assert [e.name for e in report.drifted] == ["tiny.counter"]
        assert "tiny.counter" in report.describe()
        assert "FAIL" in report.describe()

    def test_wall_tolerance_band(self):
        inside = self._current(**{"tiny.seconds": (0.7, regress.WALL)})
        assert compare_to_baseline(
            self._baseline(), inside, wall_tolerance=0.5
        ).passed
        outside = self._current(
            **{"tiny.seconds": (0.8, regress.WALL)}
        )
        report = compare_to_baseline(
            self._baseline(), outside, wall_tolerance=0.5
        )
        assert [e.name for e in report.drifted] == ["tiny.seconds"]

    def test_fingerprint_mismatch_skips_wall_not_exact(self):
        baseline = self._baseline()
        baseline.fingerprint = {"platform": "other-machine"}
        current = self._current(
            **{
                "tiny.seconds": (99.0, regress.WALL),
                "tiny.counter": (43.0, regress.EXACT),
            }
        )
        report = compare_to_baseline(baseline, current)
        assert not report.fingerprint_match
        statuses = {e.name: e.status for e in report.entries}
        assert statuses["tiny.seconds"] == "skipped"
        assert statuses["tiny.counter"] == "drift"

    def test_strict_wall_enforces_despite_mismatch(self):
        baseline = self._baseline()
        baseline.fingerprint = {"platform": "other-machine"}
        current = self._current(
            **{"tiny.seconds": (99.0, regress.WALL)}
        )
        report = compare_to_baseline(
            baseline, current, strict_wall=True
        )
        assert [e.name for e in report.drifted] == ["tiny.seconds"]

    def test_missing_and_new_metrics_fail(self):
        current = self._current()
        del current["tiny.other"]
        current["tiny.extra"] = (1.0, regress.EXACT)
        report = compare_to_baseline(self._baseline(), current)
        statuses = {e.name: e.status for e in report.entries}
        assert statuses["tiny.other"] == "missing"
        assert statuses["tiny.extra"] == "new"
        assert not report.passed


class TestGate:
    def test_gate_roundtrip_and_perturbation(self, fake_suite, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        record_baseline("tiny", runs=1, path=path)
        assert gate("tiny", path, runs=1).passed

        payload = json.loads(path.read_text())
        payload["metrics"]["tiny.counter"]["value"] = 41.0
        path.write_text(json.dumps(payload))
        report = gate("tiny", path, runs=1)
        assert not report.passed
        assert [e.name for e in report.drifted] == ["tiny.counter"]

    def test_gate_rejects_suite_mismatch(self, fake_suite, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        record_baseline("tiny", runs=1, path=path)
        with pytest.raises(ValueError, match="records suite"):
            gate("small", path, runs=1)


class TestCommittedBaseline:
    def test_small_baseline_is_committed_and_wellformed(self):
        path = REPO / "BENCH_small.json"
        assert path.is_file(), (
            "BENCH_small.json missing; record it with PYTHONPATH=src "
            "python -m repro perfgate --suite small --record"
        )
        baseline = load_baseline(path)
        assert baseline.suite == "small"
        assert baseline.runs >= 5
        kinds = {kind for _, kind in baseline.metrics.values()}
        assert kinds == {regress.EXACT, regress.WALL}
        exact = [
            name
            for name, (_, kind) in baseline.metrics.items()
            if kind == regress.EXACT
        ]
        assert len(exact) >= 10

    @pytest.mark.slow
    def test_small_suite_exact_counters_match_baseline(self):
        """The committed baseline gates clean on this tree (1 run)."""
        path = REPO / "BENCH_small.json"
        baseline = load_baseline(path)
        recorded_mode = baseline.fingerprint.get("kernels")
        current_mode = regress.machine_fingerprint()["kernels"]
        if recorded_mode != current_mode:
            pytest.skip(
                "baseline recorded under kernel mode "
                f"{recorded_mode!r}; this run resolves "
                f"{current_mode!r} — memo-traffic counters differ by "
                "design between the paths"
            )
        report = gate("small", path, runs=1)
        exact_drift = [
            entry
            for entry in report.drifted
            if entry.kind == regress.EXACT
        ]
        assert exact_drift == [], report.describe()


class TestExperimentSuites:
    """Every recorded experiment is a suite whose rows are metrics."""

    def test_every_experiment_is_a_suite(self):
        from repro.bench.experiments import EXPERIMENTS

        assert set(EXPERIMENTS) <= set(regress.SUITES)
        assert "replay" in EXPERIMENTS and "stream" not in EXPERIMENTS

    def test_rows_round_trip_through_metrics(self):
        from repro.bench.experiments import Row

        rows = [
            Row("fig6", "MC", "fashion & accessories", "sigma", 0.125,
                "efficient", 0.25, 1.5, 18.25, 500),
            Row("fig78", "CPH", "synthetic", "|C|", 20000.0,
                "no-client-pruning", 0.5, 2.0, 7.0, 1000),
            Row("parallel", "MC", "batch", "workers", 2.0, "parallel",
                1.25, 0.0, None, 250),
        ]
        metrics = regress.row_metrics(rows)
        kinds = {
            name.rpartition(".")[2]: kind
            for name, (_, kind) in metrics.items()
        }
        assert kinds == {
            "clients": regress.EXACT,
            "objective": regress.EXACT,
            "seconds": regress.WALL,
            "peak_mb": regress.WALL,
        }
        assert regress.metric_rows(metrics) == rows

    def test_committed_recordings_are_fingerprinted(self):
        paths = sorted((REPO / "benchmarks/recorded").glob("*.json"))
        assert paths
        for path in paths:
            baseline = load_baseline(path)
            assert baseline.suite == path.stem
            assert baseline.suite in regress.SUITES
            assert baseline.fingerprint.get("cpu_count")
            assert baseline.git_sha
            assert baseline.runs >= 3
            assert regress.metric_rows(baseline.metrics)
