"""The harness never times a call under ``tracemalloc``.

Tracing hooks every allocation and slows algorithms by different
factors, so a row's seconds are the solver's own timing of an untraced
solve and its peak memory comes from a separate traced run.  The probe
logs every solve with ``tracemalloc.is_tracing()`` and keeps the
untraced results: a row's seconds must be exactly theirs.
"""

import tracemalloc

from repro import IFLSEngine
from repro.bench import experiments
from repro.bench.experiments import ABLATION_VARIANTS, Scale, ablations
from repro.datasets import CPH, small_office
from tests.conftest import facility_split, make_clients

#: One row: the timed solve, then the traced memory pass.
ROW = ["untraced", "traced"]


def _probe(monkeypatch, engine, events, timed):
    query = engine.query

    def solve(*args, **kwargs):
        result = query(*args, **kwargs)
        if tracemalloc.is_tracing():
            events.append("traced")
        else:
            events.append("untraced")
            timed.append(result.stats.elapsed_seconds)
        return result

    monkeypatch.setattr(engine, "query", solve)


def test_query_rows_time_untraced(monkeypatch):
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    clients = make_clients(venue, 20, seed=61)
    fs = facility_split(rooms, existing=3, candidates=5, seed=61)
    events, timed = [], []
    _probe(monkeypatch, engine, events, timed)
    row = experiments.query_row(
        engine, clients, fs, "efficient",
        experiment="x", venue="office", setting="s",
        parameter="|C|", value=20,
    )
    assert events == ROW
    assert row.time_seconds == timed[0]
    assert row.memory_mb > 0
    assert row.clients == 20


def test_ablations_time_untraced(monkeypatch):
    cache = experiments.EngineCache()
    engine = cache.engine(CPH)  # index build outside the probe
    events, timed = [], []
    _probe(monkeypatch, engine, events, timed)
    rows = ablations(scale=Scale("tiny", 500), cache=cache,
                     venue_name=CPH)
    assert events == ROW * len(ABLATION_VARIANTS)
    assert [row.time_seconds for row in rows] == timed
    assert all(row.memory_mb > 0 for row in rows)
