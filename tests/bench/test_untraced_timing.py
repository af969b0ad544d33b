"""The harness never runs a timed call under ``tracemalloc``.

Tracing hooks every allocation and slows algorithms by different
factors, so each repetition is timed untraced and its peak memory comes
from a separate traced run.  The probes log every harness timer read
and every solve with ``tracemalloc.is_tracing()``: a solve between the
two reads of one repetition is the timed one.
"""

import time
import tracemalloc

from repro import IFLSEngine
from repro.bench import experiments, measure
from repro.bench.experiments import ABLATION_VARIANTS, Scale, ablations
from repro.datasets import CPH, small_office
from tests.conftest import facility_split, make_clients

#: One repetition: the timed solve between two timer reads, then the
#: traced memory pass.
REPETITION = ["tick", "untraced", "tick", "traced"]


def _probe_clock(monkeypatch, module, events):
    class Clock:
        @staticmethod
        def perf_counter():
            events.append("tick")
            return time.perf_counter()

    monkeypatch.setattr(module, "time", Clock)


def _probe(fn, events):
    def solve(*args, **kwargs):
        events.append(
            "traced" if tracemalloc.is_tracing() else "untraced"
        )
        return fn(*args, **kwargs)

    return solve


def test_measure_query_times_untraced(monkeypatch):
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    clients = make_clients(venue, 20, seed=61)
    fs = facility_split(rooms, existing=3, candidates=5, seed=61)
    events = []
    _probe_clock(monkeypatch, measure, events)
    monkeypatch.setattr(engine, "query", _probe(engine.query, events))
    m = measure.measure_query(engine, clients, fs, "efficient", repeats=2)
    assert events == REPETITION * 2
    assert all(peak > 0 for peak in m.peak_memory_bytes)


def test_ablations_time_untraced(monkeypatch):
    cache = experiments.EngineCache()
    cache.engine(CPH)  # index build outside the probes
    events = []
    _probe_clock(monkeypatch, experiments, events)
    monkeypatch.setattr(
        experiments,
        "efficient_minmax",
        _probe(experiments.efficient_minmax, events),
    )
    rows = ablations(scale=Scale("tiny", 500, 1), cache=cache,
                     venue_name=CPH)
    assert events == REPETITION * len(ABLATION_VARIANTS)
    assert all(row.memory_mb > 0 for row in rows)
