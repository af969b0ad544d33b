"""Unit tests for the experiment harness (micro-scale runs)."""

import pytest

from repro.bench import (
    ABLATION_VARIANTS,
    EngineCache,
    Row,
    Scale,
    ablations,
    current_scale,
    default_fe,
    default_fn,
    extensions,
    fig5,
    fig6,
    fig78,
)
from repro.bench.reporting import (
    format_series,
    group_rows,
    summarize_speedups,
    write_csv,
)
from repro.bench.tables import format_table1, format_table2, table1_rows
from repro.datasets import CPH

TINY = Scale("tiny", 500)


@pytest.fixture(scope="module")
def cache():
    return EngineCache()


class TestScale:
    def test_default_scale_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert current_scale().name == "medium"

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_clients_floor(self):
        assert TINY.clients(1000) == 20

    def test_defaults_are_range_midpoints(self):
        assert default_fe("MC") == 75
        assert default_fn("MZB") == 500


class TestExperiments:
    def test_fig5_rows(self, cache):
        rows = fig5(
            scale=TINY,
            cache=cache,
            categories=("banks & services",),
            client_sizes=(1000,),
        )
        assert len(rows) == 2  # efficient + baseline
        assert {r.algorithm for r in rows} == {"efficient", "baseline"}
        assert all(r.experiment == "fig5" for r in rows)
        assert all(r.time_seconds > 0 for r in rows)
        # The paper's count labels the row; the count that ran is kept.
        assert all(r.value == 1000 for r in rows)
        assert all(r.clients == TINY.clients(1000) for r in rows)
        # Both algorithms agree on the optimum.
        objectives = {round(r.objective or 0, 6) for r in rows}
        assert len(objectives) == 1

    def test_fig6_rows(self, cache):
        rows = fig6(
            scale=TINY, cache=cache, sigmas=(0.5,), venues=(CPH,)
        )
        settings = {(r.venue, r.setting) for r in rows}
        assert ("MC", "real") in settings
        assert (CPH, "synthetic") in settings

    def test_fig78_rows(self, cache):
        rows = fig78(scale=TINY, cache=cache, venues=(CPH,),
                     parts=("Fe",))
        values = sorted({r.value for r in rows})
        assert values == [10, 15, 20, 25, 30]
        assert all(r.parameter == "|Fe|" for r in rows)

    def test_ablation_rows(self, cache):
        rows = ablations(scale=TINY, cache=cache, venue_name=CPH)
        assert {r.algorithm for r in rows} == set(ABLATION_VARIANTS)
        objectives = {round(r.objective or 0, 6) for r in rows}
        assert len(objectives) == 1  # ablations do not change answers

    def test_extensions_rows(self, cache):
        rows = extensions(scale=TINY, cache=cache, venue_name=CPH)
        assert {r.setting for r in rows} == {"mindist", "maxsum"}
        by_setting = {}
        for row in rows:
            by_setting.setdefault(row.setting, {})[row.algorithm] = row
        for setting, algs in by_setting.items():
            assert algs["efficient"].objective == pytest.approx(
                algs["bruteforce"].objective
            )


class TestReporting:
    def _rows(self):
        return [
            Row("figX", "MC", "synthetic", "|C|", 1000, "efficient",
                0.5, 10.0, 1.0),
            Row("figX", "MC", "synthetic", "|C|", 1000, "baseline",
                1.5, 5.0, 1.0),
        ]

    def test_group_rows(self):
        grouped = group_rows(self._rows())
        assert len(grouped) == 1
        (key, algs), = grouped.items()
        assert set(algs) == {"efficient", "baseline"}

    def test_format_series_time(self):
        text = format_series(self._rows(), metric="time", title="T")
        assert "varying |C|" in text
        assert "3.00x" in text  # 1.5 / 0.5

    def test_format_series_memory(self):
        text = format_series(self._rows(), metric="memory")
        assert "0.50x" in text  # 5 / 10

    def test_format_series_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            format_series(self._rows(), metric="joules")

    def test_summarize_speedups(self):
        summary = summarize_speedups(self._rows())
        (label, (mean, peak)), = summary.items()
        assert mean == pytest.approx(3.0)
        assert peak == pytest.approx(3.0)

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out" / "rows.csv"
        write_csv(self._rows(), path)
        content = path.read_text().splitlines()
        assert len(content) == 3
        assert content[0].startswith("experiment,venue")


class TestTables:
    def test_table1_contains_all_references(self):
        text = format_table1()
        for entry in table1_rows():
            assert entry.reference.split()[0] in text

    def test_table1_row_count(self):
        assert len(table1_rows()) == 13

    def test_table2_contains_ranges(self):
        text = format_table2()
        assert "MC" in text and "MZB" in text
        assert "1k, 5k, 10k, 15k, 20k" in text
        assert "101, 54, 39, 19, 14" in text


class TestStreamReplay:
    def test_modes_agree_and_rows_shape(self, cache):
        from repro.bench.experiments import stream_replay

        rows = stream_replay(
            scale=TINY, cache=cache, event_counts=(30,)
        )
        assert len(rows) == 2
        modes = {row.algorithm for row in rows}
        assert modes == {"incremental", "oracle"}
        for row in rows:
            assert row.experiment == "replay"
            assert row.parameter == "events"
            assert row.value == 30
            assert row.time_seconds > 0
