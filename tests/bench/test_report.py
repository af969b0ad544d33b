"""The programmatic EXPERIMENTS.md generator.

The report is a build artifact: :class:`repro.bench.report.DataProvider`
reads the recorded suite baselines (experiments and perf-gate suites,
one schema), the ``section_*`` generators render Markdown from nothing
else, and
``compose`` is deterministic byte for byte.  These tests drive the
pipeline over small synthetic fixtures (golden substrings per section,
byte-identity across runs, drift detection when a recorded value is
corrupted) and over the real committed artifacts (the committed
EXPERIMENTS.md must regenerate exactly — the same invariant CI's
``report-drift`` job enforces).
"""

import json
from pathlib import Path

import pytest

from repro.bench import regress, report
from repro.bench.experiments import Row
from repro.bench.report import DataProvider
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


def _row(
    experiment,
    algorithm,
    time_seconds,
    venue="MC",
    setting="synthetic",
    parameter="|C|",
    value=1000.0,
    memory_mb=1.0,
    objective=None,
    clients=50,
):
    return Row(
        experiment=experiment,
        venue=venue,
        setting=setting,
        parameter=parameter,
        value=value,
        algorithm=algorithm,
        time_seconds=time_seconds,
        memory_mb=memory_mb,
        objective=objective,
        clients=clients,
    )


def _record(path, rows, cpu_count=2):
    """Save rows the way ``ifls perfgate --record`` stores a suite."""
    regress.Baseline(
        suite=path.stem,
        runs=3,
        created="2026-01-01T00:00:00",
        git_sha="fedcba9876543210",
        fingerprint={"cpu_count": cpu_count, "kernels": True},
        metrics=regress.row_metrics(rows),
    ).save(path)


@pytest.fixture
def recorded(tmp_path):
    """A results dir + baseline dir with one tiny recorded world."""
    results = tmp_path / "recorded"
    rows = []
    for value, base, fast in ((1000.0, 0.8, 0.2), (2000.0, 2.0, 0.4)):
        clients = int(value) // 20
        rows.append(
            _row("fig78", "efficient", fast, value=value, clients=clients)
        )
        rows.append(
            _row("fig78", "baseline", base, value=value, clients=clients)
        )
    _record(results / "fig78.json", rows)
    _record(
        results / "fig5.json",
        [
            _row("fig5", "efficient", 0.1, setting="FoodCourt"),
            _row("fig5", "baseline", 0.5, setting="FoodCourt"),
        ],
    )
    _record(
        results / "parallel.json",
        [
            _row("parallel", "parallel", time_seconds, setting="batch",
                 parameter="workers", value=workers, memory_mb=0.0)
            for workers, time_seconds in ((1.0, 1.0), (2.0, 0.5),
                                          (4.0, 0.4))
        ],
    )
    baseline = regress.Baseline(
        suite="matrix",
        runs=3,
        created="2026-01-01T00:00:00",
        git_sha="0123456789abcdef",
        fingerprint={"kernels": True},
        metrics={
            "matrix.CPH.viptree.efficient.distance_computations":
                (1234.0, regress.EXACT),
            "matrix.CPH.viptree.efficient.answer":
                (7.0, regress.EXACT),
            "matrix.CPH.viptree.efficient.seconds":
                (0.25, regress.WALL),
            "matrix.CPH.viptree.baseline.distance_computations":
                (8000.0, regress.EXACT),
            "matrix.CPH.viptree.baseline.answer":
                (7.0, regress.EXACT),
            "matrix.CPH.viptree.baseline.seconds":
                (0.75, regress.WALL),
            "matrix.CPH.viptree.d2d.checksum":
                (1111.5, regress.EXACT),
            "matrix.CPH.viptree.d2d.seconds": (0.03, regress.WALL),
            "matrix.CPH.doortable.d2d.checksum":
                (1111.5, regress.EXACT),
            "matrix.CPH.doortable.d2d.seconds": (0.01, regress.WALL),
            "kernels.CPH.distance_computations":
                (1234.0, regress.EXACT),
            "kernels.CPH.off.seconds": (0.5, regress.WALL),
            "kernels.CPH.on.seconds": (0.1, regress.WALL),
        },
    )
    baseline.save(tmp_path / "BENCH_matrix.json")
    return DataProvider(results_dir=results, baseline_dir=tmp_path)


class TestDataProvider:
    def test_inventory(self, recorded):
        assert recorded.experiments() == ["fig5", "fig78", "parallel"]
        assert recorded.experiment("fig78").runs == 3
        assert len(recorded.rows("fig78")) == 4
        assert recorded.suites() == ["matrix"]
        assert recorded.baseline("matrix").runs == 3

    def test_missing_data_is_empty_not_fatal(self, tmp_path):
        provider = DataProvider(
            results_dir=tmp_path / "none", baseline_dir=tmp_path
        )
        assert provider.experiments() == []
        assert provider.experiment("fig78") is None
        assert provider.rows("fig78") == []
        assert provider.baseline("matrix") is None
        assert provider.metrics("matrix") == {}


class TestSections:
    """Golden substrings per section generator."""

    def test_provenance_lists_artifacts(self, recorded):
        text = report.section_provenance(recorded)
        assert "`benchmarks/recorded/fig78.json`" in text
        assert "`BENCH_matrix.json`" in text
        assert "0123456789" in text  # abbreviated git sha
        assert "fedcba9876" in text  # experiment recordings carry one

    def test_parameters_from_harness_constants(self, recorded):
        from repro.bench.experiments import CLIENT_SIZES

        text = report.section_parameters(recorded)
        assert "| venue | |Fe| range | |Fn| range |" in text
        assert f"{CLIENT_SIZES[0] // 1000}k" in text

    def test_headline_speedups(self, recorded):
        text = report.section_headline(recorded)
        # 0.8/0.2 = 4x and 2.0/0.4 = 5x -> mean 4.50x, max 5.00x
        assert "4.50×" in text
        assert "5.00×" in text
        # The largest |C| label names the clients that ran.
        assert "5.00× @ |C|=2k (ran 100)" in text

    def test_fig5_table(self, recorded):
        text = report.section_fig5(recorded)
        assert "FoodCourt" in text
        assert "5.00×" in text  # 0.5 / 0.1

    def test_fig7_time_table(self, recorded):
        text = report.section_fig7(recorded)
        assert "varying |C|" in text
        assert "MC efficient" in text
        assert "0.2 s" in text
        assert "| 1k (ran 50) | 2k (ran 100) |" in text

    def test_parallel_scaling(self, recorded):
        text = report.section_parallel(recorded)
        assert "| 1 | 1 s | 1.00× |" in text
        assert "| 2 | 0.5 s | 2.00× |" in text
        assert "Recorded on 2 CPUs" in text

    def test_parallel_speedup_needs_the_cpus(self, recorded):
        """No speedup is printed for more workers than the recording
        machine had CPUs; one CPU shows only the serial row's."""
        text = report.section_parallel(recorded)
        assert "| 4 | 0.4 s | — |" in text
        _record(
            recorded.results_dir / "parallel.json",
            recorded.rows("parallel"),
            cpu_count=1,
        )
        fresh = DataProvider(
            results_dir=recorded.results_dir,
            baseline_dir=recorded.baseline_dir,
        )
        text = report.section_parallel(fresh)
        assert "| 1 | 1 s | 1.00× |" in text
        assert "| 2 | 0.5 s | — |" in text

    def test_matrix_tables(self, recorded):
        text = report.section_matrix(recorded)
        assert "| CPH | efficient | 1,234 | 7 | 0.25 s |" in text
        assert "| CPH | doortable | 1111.500000 | 0.01 s | 1.00× |" \
            in text
        assert "3.00×" in text  # viptree d2d vs doortable

    def test_kernels_table(self, recorded):
        text = report.section_kernels(recorded)
        assert "| CPH | 0.5 s | 0.1 s | 5.00× | 1,234 |" in text

    def test_missing_experiment_renders_placeholder(self, tmp_path):
        provider = DataProvider(
            results_dir=tmp_path, baseline_dir=tmp_path
        )
        for section in report.SECTIONS.values():
            text = section(provider)
            assert text.startswith("## ")

    def test_section_generators_have_no_numeric_literals(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_counters", REPO / "tools/check_counters.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.report_literal_violations() == []


class TestCompose:
    def test_every_section_present_and_counted(self, recorded):
        from repro.obs import observe

        with observe() as (tracer, registry):
            text = report.compose(recorded)
        assert text.startswith("# EXPERIMENTS")
        assert "GENERATED FILE" in text
        for section in report.SECTIONS.values():
            title = section(recorded).splitlines()[0]
            assert title in text
        names = [record.name for record in tracer.sorted_records()]
        assert "report.generate" in names
        assert registry.counter("report.sections").value == len(
            report.SECTIONS
        )

    def test_deterministic_byte_identical(self, recorded):
        assert report.compose(recorded) == report.compose(recorded)

    def test_generate_then_check_roundtrip(self, recorded, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        text = report.generate(recorded, out)
        assert out.read_text() == text
        ok, diff = report.check(recorded, out)
        assert ok and diff == ""

    def test_check_detects_corrupted_recorded_value(
        self, recorded, tmp_path
    ):
        out = tmp_path / "EXPERIMENTS.md"
        report.generate(recorded, out)
        # Corrupt one recorded measurement: the committed document no
        # longer matches what the data says.
        path = recorded.results_dir / "fig78.json"
        document = json.loads(path.read_text())
        name = next(n for n in document["metrics"] if n.endswith(".seconds"))
        document["metrics"][name]["value"] *= 10.0
        path.write_text(json.dumps(document))
        fresh = DataProvider(
            results_dir=recorded.results_dir,
            baseline_dir=recorded.baseline_dir,
        )
        ok, diff = report.check(fresh, out)
        assert not ok
        assert "EXPERIMENTS.md" in diff and "+" in diff

    def test_check_detects_hand_edit(self, recorded, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        report.generate(recorded, out)
        out.write_text(
            out.read_text().replace("4.50×", "9.99×")
        )
        ok, diff = report.check(recorded, out)
        assert not ok
        assert "9.99×" in diff


class TestCli:
    def test_report_regenerates(self, recorded, tmp_path, capsys):
        out = tmp_path / "EXPERIMENTS.md"
        code = main([
            "report",
            "--results", str(recorded.results_dir),
            "--baselines", str(recorded.baseline_dir),
            "--out", str(out),
        ])
        assert code == 0
        assert out.is_file()
        assert "sections" in capsys.readouterr().out

    def test_report_check_passes_then_fails(
        self, recorded, tmp_path, capsys
    ):
        out = tmp_path / "EXPERIMENTS.md"
        args = [
            "report",
            "--results", str(recorded.results_dir),
            "--baselines", str(recorded.baseline_dir),
            "--out", str(out),
        ]
        assert main(args) == 0
        assert main(args + ["--check"]) == 0
        out.write_text(out.read_text() + "stray edit\n")
        assert main(args + ["--check"]) == 1
        captured = capsys.readouterr()
        assert "drifted" in captured.err


class TestCommittedArtifacts:
    """The repository's own report must regenerate byte-identically."""

    def test_committed_experiments_md_is_fresh(self):
        provider = DataProvider(
            results_dir=REPO / "benchmarks/recorded",
            baseline_dir=REPO,
        )
        ok, diff = report.check(provider, REPO / "EXPERIMENTS.md")
        assert ok, f"EXPERIMENTS.md drifted; run `ifls report`:\n{diff}"

    def test_matrix_suite_is_registered(self):
        assert "matrix" in regress.SUITES
        assert (REPO / "BENCH_matrix.json").is_file()
        baseline = regress.load_baseline(REPO / "BENCH_matrix.json")
        assert any(
            name.startswith("matrix.") for name in baseline.metrics
        )
