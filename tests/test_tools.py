"""Smoke tests for the repository tools."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_api_docs_runs(tmp_path, monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "API.md")
    module.main()
    text = (tmp_path / "API.md").read_text()
    assert "# API reference" in text
    assert "repro.core.efficient" in text
    assert "repro.index.viptree" in text


def test_gen_api_docs_check_flags_a_stale_reference(
    tmp_path, monkeypatch, capsys
):
    """``--check`` passes on a fresh render and fails, printing the
    diff, once the file is edited by hand."""
    module = _load_tool("gen_api_docs")
    out = tmp_path / "API.md"
    monkeypatch.setattr(module, "OUT", out)
    assert module.main([]) == 0
    assert module.main(["--check"]) == 0
    out.write_text(out.read_text() + "hand-edited line\n")
    capsys.readouterr()
    assert module.main(["--check"]) == 1
    assert "-hand-edited line" in capsys.readouterr().out


def test_check_counters_invariants_hold():
    """The canned counter-drift workload reports zero violations."""
    module = _load_tool("check_counters")
    assert module.run_checks() == []


def test_check_counters_detects_drift():
    """A deliberately broken counter trips the checker."""
    from repro.core.stats import QueryStats

    module = _load_tool("check_counters")
    stats = QueryStats(algorithm="broken")
    stats.queue_pushes = 2
    stats.queue_pops = 5  # pops exceed pushes: impossible
    stats.iterations = 5
    violations = module.check_query_stats("broken", stats)
    assert any("queue_pops" in v for v in violations)
