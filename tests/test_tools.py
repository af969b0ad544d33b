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


def test_check_counters_flags_a_collector_left_off(monkeypatch):
    """A ``measured_query`` that never turns the cyclic collector back
    on is reported once per section of the canned workload."""
    import gc
    from types import SimpleNamespace

    from repro.core import efficient
    from repro.index import kernels

    module = _load_tool("check_counters")
    leaky = SimpleNamespace(
        isenabled=gc.isenabled, disable=gc.disable, enable=lambda: None
    )
    monkeypatch.setattr(efficient, "gc", leaky)
    try:
        violations = module.run_checks()
    finally:
        gc.enable()
    sections = ["efficient", "baseline", "session", "parallel", "explain",
                "service"]
    if kernels.available():
        sections.append("kernels")
    assert violations == [
        f"{section}: left the cyclic garbage collector off"
        for section in sections
    ]


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
