"""Unit tests for the harness runner (tiny scale)."""

import csv

import pytest

from repro.bench import SCALES, Scale
from repro.bench.runner import ALL_EXPERIMENTS, run_experiment

TINY = Scale("tiny", 500)


@pytest.fixture
def tiny(monkeypatch):
    """Run the experiment suites at the tiny scale."""
    monkeypatch.setitem(SCALES, "tiny", TINY)
    monkeypatch.setenv("REPRO_SCALE", "tiny")


class TestRunExperiment:
    def test_table1(self):
        lines = []
        rows = run_experiment("table1", echo=lines.append)
        assert rows == []
        assert any("Table 1" in line for line in lines)

    def test_table2(self):
        lines = []
        run_experiment("table2", echo=lines.append)
        assert any("Table 2" in line for line in lines)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99", echo=lambda *_: None)

    def test_fig7_writes_csv_and_summary(self, tmp_path):
        from repro.bench import EngineCache
        from repro.bench.experiments import fig78

        cache = EngineCache()
        # Narrow the figure to one small venue/part for test speed by
        # calling the experiment directly, then check the runner output
        # machinery via the 'ablation' experiment (small already).
        rows = fig78(scale=TINY, cache=cache, venues=("CPH",),
                     parts=("Fe",))
        assert rows

    def test_ablation_via_runner(self, tiny, tmp_path):
        lines = []
        rows = run_experiment(
            "ablation", out_dir=tmp_path, echo=lines.append
        )
        assert rows
        assert (tmp_path / "ablation.csv").exists()
        assert any("Ablations" in line for line in lines)
        assert any("scale=tiny" in line for line in lines)

    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "fig5", "fig6", "fig7", "fig8",
            "ablation", "extensions", "parallel", "replay",
        }

    def test_parallel_via_runner_writes_artifacts(self, tiny, tmp_path):
        lines = []
        rows = run_experiment(
            "parallel", out_dir=tmp_path, echo=lines.append
        )
        assert rows
        assert {int(r.value) for r in rows} == {1, 2, 4, 8}
        text = "\n".join(lines)
        assert "Scaling vs 1 worker" in text
        csv_path = tmp_path / "parallel.csv"
        with open(csv_path) as handle:
            loaded = list(csv.DictReader(handle))
        assert [float(r["value"]) for r in loaded] == [
            r.value for r in rows
        ]
        assert {int(r["clients"]) for r in loaded} == {
            TINY.clients(5_000)
        }
