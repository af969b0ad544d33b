"""Experiment definitions regenerating the paper's evaluation (Section 6).

Every figure of the paper maps to one experiment function returning
:class:`Row` records with both metrics (time and memory), so Figure 7
(time) and Figure 8 (memory) come from the same runs, exactly like the
paper reports one set of runs under two metrics.

Parameter ranges follow Table 2; the ``REPRO_SCALE`` environment
variable selects how much of the paper's scale to run:

* ``small``  (default) — client counts divided by 20, 2 repetitions;
  finishes in a few minutes on a laptop;
* ``medium`` — client counts divided by 4, 3 repetitions;
* ``paper``  — the full Table 2 ranges, 10 repetitions (as in §6.1.3).
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.efficient import (
    TOP_DOWN,
    EfficientOptions,
    efficient_minmax,
)
from ..core.queries import IFLSEngine
from ..datasets.categories import QUERY_CATEGORIES, real_setting_facilities
from ..datasets.venues import CH, CPH, MC, MZB, VENUE_NAMES, venue_by_name
from ..datasets.workloads import (
    normal_clients,
    random_facility_sets,
    uniform_clients,
)
from ..indoor.entities import FacilitySets
from .measure import Measurement, measure_query, traced_peak

def _seed(*parts: object) -> int:
    """Deterministic cross-process seed (``hash()`` is salted)."""
    return zlib.crc32(repr(parts).encode("utf-8"))


# ---------------------------------------------------------------------------
# Table 2 parameters
# ---------------------------------------------------------------------------
CLIENT_SIZES = (1_000, 5_000, 10_000, 15_000, 20_000)
DEFAULT_CLIENTS = 10_000
SIGMAS = (0.125, 0.25, 0.5, 1.0, 2.0)
DEFAULT_SIGMA = 0.5

FE_RANGES: Dict[str, Sequence[int]] = {
    MC: (25, 50, 75, 100, 125),
    CH: (50, 75, 100, 125, 150),
    CPH: (10, 15, 20, 25, 30),
    MZB: (100, 200, 300, 400, 500),
}
FN_RANGES: Dict[str, Sequence[int]] = {
    MC: (100, 125, 150, 175, 200),
    CH: (100, 200, 300, 400, 500),
    CPH: (25, 30, 35, 40, 45),
    MZB: (300, 400, 500, 600, 700),
}


def default_fe(venue: str) -> int:
    """Table-2 default |Fe| (midpoint of the venue's range)."""
    values = FE_RANGES[venue]
    return values[len(values) // 2]


def default_fn(venue: str) -> int:
    """Table-2 default |Fn| (midpoint of the venue's range)."""
    values = FN_RANGES[venue]
    return values[len(values) // 2]


# ---------------------------------------------------------------------------
# Scale
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scale:
    """How much of the paper's workload to run."""

    name: str
    client_divisor: int
    repeats: int

    def clients(self, paper_count: int) -> int:
        """Scaled client count for a paper-scale count."""
        return max(20, paper_count // self.client_divisor)


SCALES = {
    "small": Scale("small", 20, 2),
    "medium": Scale("medium", 4, 3),
    "paper": Scale("paper", 1, 10),
}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; choose from {sorted(SCALES)}"
        ) from None


# ---------------------------------------------------------------------------
# Row model and engine cache
# ---------------------------------------------------------------------------
@dataclass
class Row:
    """One measured (configuration, algorithm) data point."""

    experiment: str
    venue: str
    setting: str
    parameter: str
    value: float
    algorithm: str
    time_seconds: float
    memory_mb: float
    objective: Optional[float]

    def key(self) -> tuple:
        """Configuration key (everything but the algorithm)."""
        return (
            self.experiment, self.venue, self.setting,
            self.parameter, self.value,
        )


class EngineCache:
    """Builds each venue's IFLS engine once per harness run."""

    def __init__(self) -> None:
        self._engines: Dict[str, IFLSEngine] = {}

    def engine(self, venue_name: str) -> IFLSEngine:
        """The venue's engine, built on first use."""
        if venue_name not in self._engines:
            self._engines[venue_name] = IFLSEngine(
                venue_by_name(venue_name)
            )
        return self._engines[venue_name]


def _rows_from(
    measurements: Iterable[Measurement],
    experiment: str,
    venue: str,
    setting: str,
    parameter: str,
    value: float,
) -> List[Row]:
    return [
        Row(
            experiment=experiment,
            venue=venue,
            setting=setting,
            parameter=parameter,
            value=value,
            algorithm=m.label,
            time_seconds=m.mean_seconds,
            memory_mb=m.mean_memory_mb,
            objective=m.objective,
        )
        for m in measurements
    ]


def _measure_pair(
    engine: IFLSEngine,
    clients,
    facilities: FacilitySets,
    scale: Scale,
) -> List[Measurement]:
    return [
        measure_query(
            engine, clients, facilities, algorithm,
            repeats=scale.repeats,
        )
        for algorithm in ("efficient", "baseline")
    ]


# ---------------------------------------------------------------------------
# Figure 5: |C| sweep, real setting (Melbourne Central, 5 categories)
# ---------------------------------------------------------------------------
def fig5(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    categories: Sequence[str] = QUERY_CATEGORIES,
    client_sizes: Sequence[int] = CLIENT_SIZES,
) -> List[Row]:
    """Effect of client size in the real setting (time and memory)."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(MC)
    rows: List[Row] = []
    for category in categories:
        facilities = real_setting_facilities(engine.venue, category)
        for paper_count in client_sizes:
            count = scale.clients(paper_count)
            rng = random.Random(_seed(category, paper_count))
            clients = uniform_clients(engine.venue, count, rng)
            rows.extend(
                _rows_from(
                    _measure_pair(engine, clients, facilities, scale),
                    experiment="fig5",
                    venue=MC,
                    setting=category,
                    parameter="|C|",
                    value=paper_count,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 6: sigma sweep, real (MC) and synthetic (all four venues)
# ---------------------------------------------------------------------------
def fig6(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    sigmas: Sequence[float] = SIGMAS,
    venues: Sequence[str] = VENUE_NAMES,
    real_category: str = QUERY_CATEGORIES[0],
) -> List[Row]:
    """Effect of the normal distribution's standard deviation."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    rows: List[Row] = []
    count = scale.clients(DEFAULT_CLIENTS)

    engine = cache.engine(MC)
    facilities = real_setting_facilities(engine.venue, real_category)
    for sigma in sigmas:
        rng = random.Random(_seed("fig6-real", sigma))
        clients = normal_clients(engine.venue, count, sigma, rng)
        rows.extend(
            _rows_from(
                _measure_pair(engine, clients, facilities, scale),
                experiment="fig6",
                venue=MC,
                setting="real",
                parameter="sigma",
                value=sigma,
            )
        )

    for venue_name in venues:
        engine = cache.engine(venue_name)
        rng = random.Random(_seed("fig6-fac", venue_name))
        facilities = random_facility_sets(
            engine.venue, default_fe(venue_name), default_fn(venue_name),
            rng,
        )
        for sigma in sigmas:
            rng = random.Random(
                _seed("fig6", venue_name, sigma)
            )
            clients = normal_clients(engine.venue, count, sigma, rng)
            rows.extend(
                _rows_from(
                    _measure_pair(engine, clients, facilities, scale),
                    experiment="fig6",
                    venue=venue_name,
                    setting="synthetic",
                    parameter="sigma",
                    value=sigma,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 7 & 8: |C|, |Fe|, |Fn| sweeps, synthetic, all four venues
# (one set of runs, reported as time in Fig 7 and memory in Fig 8)
# ---------------------------------------------------------------------------
def fig78(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venues: Sequence[str] = VENUE_NAMES,
    parts: Sequence[str] = ("C", "Fe", "Fn"),
) -> List[Row]:
    """Synthetic-setting parameter sweeps (Figures 7 and 8)."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    rows: List[Row] = []
    for venue_name in venues:
        engine = cache.engine(venue_name)
        if "C" in parts:
            rng = random.Random(_seed("f7c", venue_name))
            facilities = random_facility_sets(
                engine.venue,
                default_fe(venue_name),
                default_fn(venue_name),
                rng,
            )
            for paper_count in CLIENT_SIZES:
                count = scale.clients(paper_count)
                rng = random.Random(
                    _seed("f7c", venue_name, paper_count)
                )
                clients = uniform_clients(engine.venue, count, rng)
                rows.extend(
                    _rows_from(
                        _measure_pair(engine, clients, facilities, scale),
                        experiment="fig78",
                        venue=venue_name,
                        setting="synthetic",
                        parameter="|C|",
                        value=paper_count,
                    )
                )
        count = scale.clients(DEFAULT_CLIENTS)
        if "Fe" in parts:
            for fe in FE_RANGES[venue_name]:
                rng = random.Random(
                    _seed("f7e", venue_name, fe)
                )
                facilities = random_facility_sets(
                    engine.venue, fe, default_fn(venue_name), rng
                )
                clients = uniform_clients(engine.venue, count, rng)
                rows.extend(
                    _rows_from(
                        _measure_pair(engine, clients, facilities, scale),
                        experiment="fig78",
                        venue=venue_name,
                        setting="synthetic",
                        parameter="|Fe|",
                        value=fe,
                    )
                )
        if "Fn" in parts:
            for fn in FN_RANGES[venue_name]:
                rng = random.Random(
                    _seed("f7n", venue_name, fn)
                )
                facilities = random_facility_sets(
                    engine.venue, default_fe(venue_name), fn, rng
                )
                clients = uniform_clients(engine.venue, count, rng)
                rows.extend(
                    _rows_from(
                        _measure_pair(engine, clients, facilities, scale),
                        experiment="fig78",
                        venue=venue_name,
                        setting="synthetic",
                        parameter="|Fn|",
                        value=fn,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md A1-A3): the efficient approach's design choices
# ---------------------------------------------------------------------------
ABLATION_VARIANTS: Dict[str, EfficientOptions] = {
    "full": EfficientOptions(),
    "no-client-pruning": EfficientOptions(prune_clients=False),
    "no-grouping": EfficientOptions(group_by_partition=False),
    "top-down": EfficientOptions(traversal=TOP_DOWN),
}


def ablations(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = MC,
) -> List[Row]:
    """Efficient-approach variants with individual optimisations off.

    Each repetition times a cold solve untraced, then takes its peak
    memory from a second cold solve under ``tracemalloc``.
    """
    from ..core.problem import IFLSProblem
    from ..index.distance import VIPDistanceEngine

    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    rng = random.Random(0xAB1A)
    facilities = random_facility_sets(
        engine.venue, default_fe(venue_name), default_fn(venue_name), rng
    )
    count = scale.clients(DEFAULT_CLIENTS)
    clients = uniform_clients(engine.venue, count, rng)
    rows: List[Row] = []
    for name, options in ABLATION_VARIANTS.items():
        times: List[float] = []
        memories: List[float] = []
        objective = None
        for _ in range(scale.repeats):
            problem = IFLSProblem(
                VIPDistanceEngine(engine.tree), clients, facilities
            )
            started = time.perf_counter()
            result = efficient_minmax(problem, options)
            times.append(time.perf_counter() - started)
            problem = IFLSProblem(
                VIPDistanceEngine(engine.tree), clients, facilities
            )
            peak = traced_peak(partial(efficient_minmax, problem, options))
            memories.append(peak / (1024 * 1024))
            objective = result.objective
        rows.append(
            Row(
                experiment="ablation",
                venue=venue_name,
                setting="synthetic",
                parameter="variant",
                value=0.0,
                algorithm=name,
                time_seconds=sum(times) / len(times),
                memory_mb=sum(memories) / len(memories),
                objective=objective,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Extensions (Section 7): MinDist and MaxSum vs brute force
# ---------------------------------------------------------------------------
def extensions(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = MC,
) -> List[Row]:
    """Efficient MinDist/MaxSum against the brute-force oracle."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    rng = random.Random(0x5EC7)
    facilities = random_facility_sets(
        engine.venue, default_fe(venue_name), default_fn(venue_name), rng
    )
    # Extensions run brute force too, so stay below the figure scales.
    count = max(20, scale.clients(DEFAULT_CLIENTS) // 5)
    clients = uniform_clients(engine.venue, count, rng)
    rows: List[Row] = []
    for objective in ("mindist", "maxsum"):
        for algorithm in ("efficient", "bruteforce"):
            measurement = measure_query(
                engine, clients, facilities, algorithm,
                objective=objective, repeats=max(1, scale.repeats - 1),
            )
            rows.extend(
                _rows_from(
                    [measurement],
                    experiment="extensions",
                    venue=venue_name,
                    setting=objective,
                    parameter="|C|",
                    value=count,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Parallel batch executor: wall-clock scaling across worker counts
# ---------------------------------------------------------------------------
WORKER_COUNTS = (1, 2, 4, 8)


def parallel_scaling(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = MC,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    queries: Optional[int] = None,
) -> List[Row]:
    """Wall-clock of one warm batch, sharded over 1/2/4/8 workers.

    The same batch (fresh workload per query, identical across worker
    counts) is answered through :func:`~repro.core.parallel.run_batch_parallel`
    at each pool size; answers are asserted identical, so the series
    measures pure execution scaling.  Per worker count the best of
    ``scale.repeats`` runs is reported (pool startup noise suppressed).
    Speedup is bounded by the machine's core count — a single-core
    runner shows ~1x with the sharding overhead on top.
    """
    from ..core.parallel import run_batch_parallel
    from ..core.request import QueryRequest

    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    if queries is None:
        queries = max(8, 4 * scale.repeats)
    count = scale.clients(5_000)
    batch = []
    for i in range(queries):
        rng = random.Random(_seed("parallel", venue_name, i))
        facilities = random_facility_sets(
            engine.venue,
            default_fe(venue_name),
            default_fn(venue_name),
            rng,
        )
        clients = uniform_clients(engine.venue, count, rng)
        batch.append(QueryRequest(clients, facilities))
    reference = None
    rows: List[Row] = []
    for workers in worker_counts:
        times: List[float] = []
        for _ in range(scale.repeats):
            outcome = run_batch_parallel(engine, batch, workers)
            times.append(outcome.elapsed_seconds)
            if reference is None:
                reference = outcome.answers
            elif outcome.answers != reference:
                raise RuntimeError(
                    f"parallel answers diverged at workers={workers}"
                )
        rows.append(
            Row(
                experiment="parallel",
                venue=venue_name,
                setting="batch",
                parameter="workers",
                value=workers,
                algorithm="parallel",
                time_seconds=min(times),
                memory_mb=0.0,
                objective=None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Continuous IFLS: incremental event-stream maintenance vs the oracle
# ---------------------------------------------------------------------------
STREAM_EVENT_COUNTS = (100, 200, 400)
STREAM_INITIAL = 200
STREAM_FE = 20
STREAM_FN = 15


def stream_replay(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = CPH,
    event_counts: Sequence[int] = STREAM_EVENT_COUNTS,
) -> List[Row]:
    """Incremental stream maintenance vs the from-scratch oracle.

    One synthetic arrive/depart/move stream per event count is replayed
    twice through :class:`~repro.core.stream.ContinuousQuery`: once
    incrementally (Lemma 5.1 settled groups skipped, skip rules applied)
    and once in oracle mode (full recompute per event).  Final answers
    are asserted identical, so the series measures pure maintenance
    cost; per mode the best of ``scale.repeats`` replays is reported.
    """
    from ..core.stream import ContinuousQuery, synthetic_events

    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    rng = random.Random(_seed("stream", venue_name))
    facilities = random_facility_sets(
        engine.venue, STREAM_FE, STREAM_FN, rng
    )
    rows: List[Row] = []
    for count in event_counts:
        events = synthetic_events(
            engine.venue,
            initial=STREAM_INITIAL,
            events=count,
            seed=_seed("stream-events", venue_name, count),
        )
        finals = {}
        for mode in ("incremental", "oracle"):
            times: List[float] = []
            final = None
            for _ in range(scale.repeats):
                stream = ContinuousQuery(
                    engine,
                    facilities,
                    incremental=(mode == "incremental"),
                )
                started = time.perf_counter()
                stream.apply_batch(events)
                times.append(time.perf_counter() - started)
                final = stream.answer()
            assert final is not None
            finals[mode] = (final.answer, final.objective, final.status)
            rows.append(
                Row(
                    experiment="stream",
                    venue=venue_name,
                    setting="replay",
                    parameter="events",
                    value=count,
                    algorithm=mode,
                    time_seconds=min(times),
                    memory_mb=0.0,
                    objective=(
                        final.objective
                        if final.objective != float("inf")
                        else None
                    ),
                )
            )
        if finals["incremental"] != finals["oracle"]:
            raise RuntimeError(
                f"stream experiment: incremental final answer diverged "
                f"from the oracle at events={count}: "
                f"{finals['incremental']} != {finals['oracle']}"
            )
    return rows


EXPERIMENTS: Dict[str, Callable[..., List[Row]]] = {
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig78,
    "fig8": fig78,
    "fig78": fig78,
    "ablation": ablations,
    "extensions": extensions,
    "parallel": parallel_scaling,
    "stream": stream_replay,
}
