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


def _probe(monkeypatch, events, timed, on_timed=None):
    """Log every engine's solves; ``on_timed`` sees each timed one's
    engine first (each ablation variant builds its own)."""
    query = IFLSEngine.query

    def solve(self, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing and on_timed is not None:
            on_timed(self)
        result = query(self, *args, **kwargs)
        if tracing:
            events.append("traced")
        else:
            events.append("untraced")
            timed.append(result.stats.elapsed_seconds)
        return result

    monkeypatch.setattr(IFLSEngine, "query", solve)


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
    _probe(monkeypatch, events, timed)
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
    cache.engine(CPH)  # index build outside the probe
    events, timed = [], []
    _probe(monkeypatch, events, timed)
    rows = ablations(scale=Scale("tiny", 500), cache=cache,
                     venue_name=CPH)
    assert events == ROW * len(ABLATION_VARIANTS)
    assert [row.time_seconds for row in rows] == timed
    assert all(row.memory_mb > 0 for row in rows)


#: The kernel pack's derived-distance memos, filled by solves.
PACK_CACHES = ("_node_min", "_leaf_rows", "_exit_mins")


def test_ablation_variants_each_start_cold(monkeypatch):
    """Every timed variant solve starts on its own tree, whose kernel
    pack (when kernels are on) holds no derived distance yet."""
    cache = experiments.EngineCache()
    cache.engine(CPH)
    trees, caches = [], []

    def probe(engine):
        trees.append(engine.tree)
        pack = engine.tree._kernel_pack
        caches.append(
            {}
            if pack is None
            else {name: len(getattr(pack, name)) for name in PACK_CACHES}
        )

    _probe(monkeypatch, [], [], on_timed=probe)
    ablations(scale=Scale("tiny", 500), cache=cache, venue_name=CPH)
    assert len(trees) == len(ABLATION_VARIANTS)
    warm = [
        (variant, sizes)
        for variant, sizes in zip(ABLATION_VARIANTS, caches)
        if any(sizes.values())
    ]
    assert warm == []
    for index, tree in enumerate(trees):
        assert all(tree is not other for other in trees[:index])
