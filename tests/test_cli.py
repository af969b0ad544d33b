"""Unit tests for the ``ifls`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "CPH"])
        assert args.clients == 1000
        assert args.algorithm == "efficient"
        assert args.objective == "minmax"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.experiment == "all"

    def test_serve_has_no_workers_option(self, capsys):
        """A flush answers serially on the one resident session: a
        process pool per flush lost to it on every measure, a second
        pooled session was never lent, and a flush window only
        delayed."""
        args = build_parser().parse_args(["serve", "CPH"])
        for flag in (
            "--workers", "--pool-size", "--flush-window", "--max-batch"
        ):
            assert not hasattr(args, flag[2:].replace("-", "_"))
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "CPH", flag, "2"])

    def test_query_batch_defaults(self):
        args = build_parser().parse_args(["query", "CPH"])
        assert args.batch == 1
        assert args.session_stats is False
        assert args.cache_budget is None

    def test_query_batch_flags(self):
        args = build_parser().parse_args([
            "query", "CPH", "--batch", "8", "--session-stats",
            "--cache-budget", "5000",
        ])
        assert args.batch == 8
        assert args.session_stats is True
        assert args.cache_budget == 5000


class TestCommands:
    def test_venues(self, capsys):
        assert main(["venues"]) == 0
        out = capsys.readouterr().out
        for name in ("MC", "CH", "CPH", "MZB"):
            assert name in out

    def test_info(self, capsys):
        assert main(["info", "CPH"]) == 0
        out = capsys.readouterr().out
        assert "VIP-tree" in out
        assert "partitions=76" in out

    def test_query_efficient(self, capsys):
        assert main(["query", "CPH", "--clients", "50"]) == 0
        out = capsys.readouterr().out
        assert "answer:" in out
        assert "objective:" in out

    def test_query_bruteforce_matches_efficient(self, capsys):
        main(["query", "CPH", "--clients", "40", "--seed", "3"])
        fast = capsys.readouterr().out
        main(["query", "CPH", "--clients", "40", "--seed", "3",
              "--algorithm", "bruteforce"])
        slow = capsys.readouterr().out

        def objective(text):
            for line in text.splitlines():
                if line.startswith("objective:"):
                    return float(line.split()[1])
            raise AssertionError(text)

        assert objective(fast) == pytest.approx(objective(slow))

    def test_query_reports_the_solvers_time(self, capsys, monkeypatch):
        """``time:`` is ``result.stats.elapsed_seconds``, the solver's
        own figure, not a timer around engine setup and input checks."""
        from repro.core.queries import IFLSEngine

        solve = IFLSEngine.query

        def query(self, *args, **kwargs):
            result = solve(self, *args, **kwargs)
            result.stats.elapsed_seconds = 12.5
            return result

        monkeypatch.setattr(IFLSEngine, "query", query)
        assert main(["query", "CPH", "--clients", "20"]) == 0
        assert "time:       12.500s" in capsys.readouterr().out

    def test_query_normal_distribution(self, capsys):
        assert main([
            "query", "CPH", "--clients", "30",
            "--distribution", "normal", "--sigma", "0.25",
        ]) == 0

    def test_query_mindist(self, capsys):
        assert main([
            "query", "CPH", "--clients", "30", "--objective", "mindist",
        ]) == 0

    def test_query_batch_session(self, capsys):
        assert main([
            "query", "CPH", "--clients", "30", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 queries answered" in out
        assert "hits:" in out
        assert "seeds 0..3" in out

    def test_query_batch_session_stats_and_budget(self, capsys):
        assert main([
            "query", "CPH", "--clients", "25", "--batch", "3",
            "--session-stats", "--cache-budget", "4000",
        ]) == 0
        out = capsys.readouterr().out
        assert "budget 4000" in out
        # Per-query table is printed when --session-stats is given.
        assert "objective" in out and "computed" in out

    def test_query_batch_parallel_workers(self, capsys):
        assert main([
            "query", "CPH", "--clients", "25", "--batch", "4",
            "--workers", "2", "--session-stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "4 queries answered" in out
        # Per-query rows keep submission order under sharding.
        assert out.index("seed=0") < out.index("seed=3")

    def test_query_workers_alone_triggers_batch_mode(self, capsys):
        assert main([
            "query", "CPH", "--clients", "20", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch:" in out

    def test_query_rejects_bad_worker_count(self, capsys):
        assert main([
            "query", "CPH", "--clients", "20", "--batch", "2",
            "--workers", "0",
        ]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().out

    def test_query_batch_ignores_non_efficient_algorithm(self, capsys):
        assert main([
            "query", "CPH", "--clients", "20", "--batch", "2",
            "--algorithm", "bruteforce",
        ]) == 0
        out = capsys.readouterr().out
        assert "--algorithm bruteforce ignored" in out

    def test_bench_table2(self, capsys):
        assert main(["bench", "--experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out


class TestRenderAndTopK:
    def test_render(self, capsys):
        assert main(["render", "CPH", "--level", "0",
                     "--width", "60", "--height", "12"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("level 0")
        assert "D" in out

    def test_render_all_levels(self, capsys):
        assert main(["render", "CPH", "--width", "40",
                     "--height", "10", "--labels"]) == 0

    def test_topk(self, capsys):
        assert main(["topk", "CPH", "-k", "3", "--clients", "40"]) == 0
        out = capsys.readouterr().out
        assert "#1:" in out and "#3:" in out

    def test_topk_maxsum(self, capsys):
        assert main(["topk", "CPH", "-k", "2", "--clients", "30",
                     "--objective", "maxsum"]) == 0

    def test_route(self, capsys):
        assert main(["route", "CPH", "--clients", "50"]) == 0
        out = capsys.readouterr().out
        assert "worst-off client" in out
        assert "total distance" in out

    def test_backends(self, capsys):
        assert main(["backends", "CPH", "--pairs", "30"]) == 0
        out = capsys.readouterr().out
        assert "viptree" in out and "doortable" in out and "iptree" in out


class TestObservabilityFlags:
    def test_trace_and_metrics_defaults_off(self):
        args = build_parser().parse_args(["query", "CPH"])
        assert args.trace is None
        assert args.metrics is None

    def test_single_query_trace_export(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "query", "CPH", "--clients", "25",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"-> {trace_path}" in out
        from repro.obs import contract
        from repro.obs.exporters import read_trace_jsonl

        records = read_trace_jsonl(trace_path)
        names = {record.name for record in records}
        assert names <= set(contract.SPANS)
        assert "query.efficient.minmax" in names

    def test_batch_workers_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.csv"
        assert main([
            "query", "CPH", "--clients", "25", "--batch", "4",
            "--workers", "2",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "spans ->" in out and "instruments ->" in out

        from repro.obs import contract
        from repro.obs.exporters import (
            read_metrics_csv,
            read_trace_jsonl,
        )

        records = read_trace_jsonl(trace_path)
        names = {record.name for record in records}
        assert names <= set(contract.SPANS)
        assert {"parallel.run", "parallel.shard",
                "session.query"} <= names
        # Worker spans were absorbed with their own pids.
        assert len({record.pid for record in records}) >= 2

        rows = read_metrics_csv(metrics_path)
        assert set(rows) <= set(contract.METRICS)
        assert rows["query.count"]["value"] == 4
        assert rows["parallel.workers"]["value"] == 2

    def test_metrics_alone(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.csv"
        assert main([
            "query", "CPH", "--clients", "20",
            "--metrics", str(metrics_path),
        ]) == 0
        from repro.obs.exporters import read_metrics_csv

        rows = read_metrics_csv(metrics_path)
        assert rows["query.count"]["value"] == 1
        assert "query.seconds" in rows

    def test_no_flags_leaves_observability_disabled(self, capsys):
        from repro.obs import metrics as metrics_module
        from repro.obs import trace as trace_module

        assert main(["query", "CPH", "--clients", "20"]) == 0
        assert trace_module.active() is None
        assert metrics_module.active() is None


class TestExplainCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["explain", "CPH"])
        assert args.clients == 500
        assert args.algorithm == "efficient"
        assert args.objective == "minmax"
        assert args.bound_samples == 512
        assert args.json is None and args.csv is None

    def test_explain_prints_report_sections(self, capsys):
        assert main([
            "explain", "CPH", "--clients", "40", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN  efficient/minmax" in out
        assert "answer:" in out
        assert "Lemma 5.1 bound evolution" in out
        assert "VIP-tree visits by level" in out
        assert "distance ledger (phase-attributed)" in out
        assert "time:" in out  # timings on by default

    def test_explain_no_timings(self, capsys):
        assert main([
            "explain", "CPH", "--clients", "30", "--no-timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "time:" not in out
        assert "phases" in out

    def test_explain_baseline_and_objective_flags(self, capsys):
        assert main([
            "explain", "CPH", "--clients", "30",
            "--algorithm", "baseline",
        ]) == 0
        assert "baseline/minmax" in capsys.readouterr().out
        assert main([
            "explain", "CPH", "--clients", "30",
            "--objective", "mindist",
        ]) == 0
        assert "efficient/mindist" in capsys.readouterr().out

    def test_explain_exports_json_and_csv(self, capsys, tmp_path):
        from repro.obs.explain import (
            read_explain_csv,
            read_explain_json,
        )

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main([
            "explain", "CPH", "--clients", "30", "--seed", "7",
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        report = read_explain_json(json_path)
        assert report.label == "copenhagen-airport seed=7"
        assert report.clients_total == 30
        rows = read_explain_csv(csv_path)
        assert len(rows) == len(report.phases)
        out = capsys.readouterr().out
        assert "json:" in out and "csv:" in out


class TestPerfgateCommand:
    @staticmethod
    def _tiny_suite(monkeypatch):
        from repro.bench import regress

        def build():
            return {
                "tiny.counter": (42.0, regress.EXACT),
                "tiny.seconds": (0.5, regress.WALL),
            }

        monkeypatch.setitem(regress.SUITES, "tiny", build)

    def test_record_then_gate_passes(
        self, capsys, tmp_path, monkeypatch
    ):
        self._tiny_suite(monkeypatch)
        baseline = tmp_path / "BENCH_tiny.json"
        assert main([
            "perfgate", "--suite", "tiny",
            "--baseline", str(baseline), "--record", "--runs", "1",
        ]) == 0
        assert "recorded 2 metrics" in capsys.readouterr().out
        assert baseline.is_file()
        assert main([
            "perfgate", "--suite", "tiny",
            "--baseline", str(baseline), "--runs", "1",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_baseline_fails_with_hint(self, capsys, tmp_path):
        assert main([
            "perfgate", "--suite", "small",
            "--baseline", str(tmp_path / "absent.json"),
        ]) == 1
        assert "--record" in capsys.readouterr().err

    def test_perturbed_baseline_fails_naming_metric(
        self, capsys, tmp_path, monkeypatch
    ):
        import json as json_module

        self._tiny_suite(monkeypatch)
        baseline = tmp_path / "BENCH_tiny.json"
        assert main([
            "perfgate", "--suite", "tiny",
            "--baseline", str(baseline), "--record", "--runs", "1",
        ]) == 0
        capsys.readouterr()
        payload = json_module.loads(baseline.read_text())
        payload["metrics"]["tiny.counter"]["value"] = 41.0
        baseline.write_text(json_module.dumps(payload))
        out_path = tmp_path / "gate.txt"
        assert main([
            "perfgate", "--suite", "tiny",
            "--baseline", str(baseline), "--runs", "1",
            "--out", str(out_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "tiny.counter" in out
        assert "tiny.counter" in out_path.read_text()


class TestStreamCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream", "CPH"])
        assert args.initial == 100
        assert args.count == 300
        assert args.oracle is False
        assert args.events is None

    def test_synthetic_replay(self, capsys):
        assert main([
            "stream", "MC", "--initial", "12", "--count", "20",
            "--existing", "3", "--candidates", "4", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "events:     32" in out
        assert "ratio=" in out
        assert "final:" in out

    def test_save_replay_oracle_agree(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        common = [
            "MC", "--initial", "10", "--count", "15",
            "--existing", "3", "--candidates", "4", "--seed", "6",
        ]
        assert main(["stream", *common, "--save-events",
                     str(path)]) == 0
        fast = capsys.readouterr().out
        assert path.exists()
        assert main(["stream", "MC", "--events", str(path),
                     "--existing", "3", "--candidates", "4",
                     "--seed", "6", "--oracle"]) == 0
        slow = capsys.readouterr().out
        final_fast = [l for l in fast.splitlines()
                      if l.startswith("final:")]
        final_slow = [l for l in slow.splitlines()
                      if l.startswith("final:")]
        assert final_fast == final_slow
        assert "oracle" in slow
        assert "skipped=0 partial=0" in slow
