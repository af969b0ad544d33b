"""Experiment sweeps regenerating the paper's evaluation (Section 6).

Every figure of the paper maps to one sweep returning :class:`Row`
records with both metrics (time and memory), so Figure 7 (time) and
Figure 8 (memory) come from the same runs, exactly like the paper
reports one set of runs under two metrics.  Each sweep is the body of
one perf-gate suite (:data:`repro.bench.regress.SUITES`): ``ifls
perfgate --record`` repeats it ``--runs`` times and stores per-row
medians, and ``ifls bench`` prints one run of it.

A row measures its query in two passes over the same inputs.  Its
seconds are the solver's own ``result.stats.elapsed_seconds`` of an
untraced, cold solve (the index is built offline, as in §6.1.3); its
peak memory comes from a second cold solve under ``tracemalloc``,
never timed, because tracing slows algorithms by different factors.

Parameter ranges follow Table 2; the ``REPRO_SCALE`` environment
variable selects how much of the paper's client counts to run.  A row
keeps the paper's count as its label and records the count that ran:

* ``small``  (default) — client counts divided by 20;
* ``medium`` — client counts divided by 4;
* ``paper``  — the full Table 2 counts.
"""

from __future__ import annotations

import os
import random
import time
import tracemalloc
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.efficient import TOP_DOWN, EfficientOptions
from ..core.queries import MINMAX, IFLSEngine
from ..datasets.categories import QUERY_CATEGORIES, real_setting_facilities
from ..datasets.venues import CH, CPH, MC, MZB, VENUE_NAMES, venue_by_name
from ..datasets.workloads import (
    normal_clients,
    random_facility_sets,
    uniform_clients,
)
from ..indoor.entities import Client, FacilitySets


def zlib_seed(*parts: object) -> int:
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

#: The client-count parameter; its row labels are paper-scale counts.
PARAM_C = "|C|"


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
    """How much of the paper's client counts to run."""

    name: str
    client_divisor: int

    def clients(self, paper_count: int) -> int:
        """Scaled client count for a paper-scale count."""
        return max(20, paper_count // self.client_divisor)


SCALES = {
    "small": Scale("small", 20),
    "medium": Scale("medium", 4),
    "paper": Scale("paper", 1),
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
    """One measured (configuration, algorithm) data point.

    ``clients`` is the client count that ran; when ``parameter`` is
    :data:`PARAM_C`, ``value`` is the paper's count it stands for.
    ``memory_mb`` is 0 where no memory pass ran (batches, replays) and
    ``objective`` is ``None`` where a row has no single answer.
    """

    experiment: str
    venue: str
    setting: str
    parameter: str
    value: float
    algorithm: str
    time_seconds: float
    memory_mb: float
    objective: Optional[float]
    clients: int = 0

    def key(self) -> tuple:
        """Configuration key (everything but the algorithm)."""
        return (
            self.experiment, self.venue, self.setting,
            self.parameter, self.value,
        )


class EngineCache:
    """Builds each venue's IFLS engine once per sweep run."""

    def __init__(self) -> None:
        self._engines: Dict[str, IFLSEngine] = {}

    def engine(self, venue_name: str) -> IFLSEngine:
        """The venue's engine, built on first use."""
        if venue_name not in self._engines:
            self._engines[venue_name] = IFLSEngine(
                venue_by_name(venue_name)
            )
        return self._engines[venue_name]


# ---------------------------------------------------------------------------
# Measuring one row
# ---------------------------------------------------------------------------
def traced_peak_mb(run: Callable[[], object]) -> float:
    """Peak traced allocation (MB) of one call of ``run``.

    The memory pass of a row: never time a call made here.
    """
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def query_row(
    engine: IFLSEngine,
    clients: Sequence[Client],
    facilities: FacilitySets,
    algorithm: str,
    objective: str = MINMAX,
    options: Optional[EfficientOptions] = None,
    label: Optional[str] = None,
    **key,
) -> Row:
    """Measure one cold query configuration into a row.

    ``key`` names the row (experiment, venue, setting, parameter,
    value); ``label`` replaces the algorithm name (ablation variants).
    """

    def run():
        return engine.query(
            clients,
            facilities,
            objective=objective,
            algorithm=algorithm,
            options=options,
            cold=True,
        )

    result = run()
    return Row(
        algorithm=label or algorithm,
        time_seconds=result.stats.elapsed_seconds,
        memory_mb=traced_peak_mb(run),
        objective=result.objective,
        clients=len(clients),
        **key,
    )


def _pair_rows(
    engine: IFLSEngine, clients, facilities: FacilitySets, **key
) -> List[Row]:
    """Efficient and baseline rows on the same inputs."""
    return [
        query_row(engine, clients, facilities, algorithm, **key)
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
            rng = random.Random(zlib_seed(category, paper_count))
            clients = uniform_clients(
                engine.venue, scale.clients(paper_count), rng
            )
            rows += _pair_rows(
                engine, clients, facilities,
                experiment="fig5", venue=MC, setting=category,
                parameter=PARAM_C, value=paper_count,
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
        rng = random.Random(zlib_seed("fig6-real", sigma))
        clients = normal_clients(engine.venue, count, sigma, rng)
        rows += _pair_rows(
            engine, clients, facilities,
            experiment="fig6", venue=MC, setting="real",
            parameter="sigma", value=sigma,
        )

    for venue_name in venues:
        engine = cache.engine(venue_name)
        rng = random.Random(zlib_seed("fig6-fac", venue_name))
        facilities = random_facility_sets(
            engine.venue, default_fe(venue_name), default_fn(venue_name),
            rng,
        )
        for sigma in sigmas:
            rng = random.Random(zlib_seed("fig6", venue_name, sigma))
            clients = normal_clients(engine.venue, count, sigma, rng)
            rows += _pair_rows(
                engine, clients, facilities,
                experiment="fig6", venue=venue_name, setting="synthetic",
                parameter="sigma", value=sigma,
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
        key = dict(experiment="fig78", venue=venue_name, setting="synthetic")
        if "C" in parts:
            rng = random.Random(zlib_seed("f7c", venue_name))
            facilities = random_facility_sets(
                engine.venue,
                default_fe(venue_name),
                default_fn(venue_name),
                rng,
            )
            for paper_count in CLIENT_SIZES:
                rng = random.Random(zlib_seed("f7c", venue_name, paper_count))
                clients = uniform_clients(
                    engine.venue, scale.clients(paper_count), rng
                )
                rows += _pair_rows(
                    engine, clients, facilities,
                    parameter=PARAM_C, value=paper_count, **key,
                )
        count = scale.clients(DEFAULT_CLIENTS)
        if "Fe" in parts:
            for fe in FE_RANGES[venue_name]:
                rng = random.Random(zlib_seed("f7e", venue_name, fe))
                facilities = random_facility_sets(
                    engine.venue, fe, default_fn(venue_name), rng
                )
                clients = uniform_clients(engine.venue, count, rng)
                rows += _pair_rows(
                    engine, clients, facilities,
                    parameter="|Fe|", value=fe, **key,
                )
        if "Fn" in parts:
            for fn in FN_RANGES[venue_name]:
                rng = random.Random(zlib_seed("f7n", venue_name, fn))
                facilities = random_facility_sets(
                    engine.venue, default_fe(venue_name), fn, rng
                )
                clients = uniform_clients(engine.venue, count, rng)
                rows += _pair_rows(
                    engine, clients, facilities,
                    parameter="|Fn|", value=fn, **key,
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
    """Efficient-approach variants with individual optimisations off."""
    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    rng = random.Random(0xAB1A)
    facilities = random_facility_sets(
        engine.venue, default_fe(venue_name), default_fn(venue_name), rng
    )
    clients = uniform_clients(
        engine.venue, scale.clients(DEFAULT_CLIENTS), rng
    )
    return [
        query_row(
            engine, clients, facilities, "efficient",
            options=options, label=name,
            experiment="ablation", venue=venue_name, setting="synthetic",
            parameter=PARAM_C, value=DEFAULT_CLIENTS,
        )
        for name, options in ABLATION_VARIANTS.items()
    ]


# ---------------------------------------------------------------------------
# Extensions (Section 7): MinDist and MaxSum vs brute force
# ---------------------------------------------------------------------------
#: Extensions run brute force too, so they stay below the figure scales.
EXTENSION_CLIENTS = DEFAULT_CLIENTS // 5


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
    clients = uniform_clients(
        engine.venue, scale.clients(EXTENSION_CLIENTS), rng
    )
    return [
        query_row(
            engine, clients, facilities, algorithm, objective=objective,
            experiment="extensions", venue=venue_name, setting=objective,
            parameter=PARAM_C, value=EXTENSION_CLIENTS,
        )
        for objective in ("mindist", "maxsum")
        for algorithm in ("efficient", "bruteforce")
    ]


# ---------------------------------------------------------------------------
# Parallel batch executor: wall-clock scaling across worker counts
# ---------------------------------------------------------------------------
WORKER_COUNTS = (1, 2, 4, 8)
PARALLEL_QUERIES = 8
PARALLEL_CLIENTS = 5_000


def parallel_scaling(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = MC,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    queries: int = PARALLEL_QUERIES,
) -> List[Row]:
    """Wall-clock of one warm batch, sharded over 1/2/4/8 workers.

    The same batch (fresh workload per query, identical across worker
    counts) is answered through :func:`~repro.core.parallel.run_batch_parallel`
    at each pool size; answers are asserted identical, so the series
    measures pure execution scaling.  Speedup is bounded by the
    machine's core count, which the recording's fingerprint names.
    """
    from ..core.parallel import run_batch_parallel
    from ..core.request import QueryRequest

    scale = scale or current_scale()
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    count = scale.clients(PARALLEL_CLIENTS)
    batch = []
    for i in range(queries):
        rng = random.Random(zlib_seed("parallel", venue_name, i))
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
        outcome = run_batch_parallel(engine, batch, workers)
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
                time_seconds=outcome.elapsed_seconds,
                memory_mb=0.0,
                objective=None,
                clients=count,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Continuous IFLS: incremental event-stream maintenance vs the oracle
# ---------------------------------------------------------------------------
#: The stream workload shared by the ``replay`` and ``stream`` suites:
#: venue, facility counts and the arrivals seeding the crowd.
STREAM_VENUE = CPH
STREAM_FE = 20
STREAM_FN = 15
STREAM_INITIAL = 200
STREAM_EVENT_COUNTS = (100, 200, 400)


def stream_replay(
    scale: Optional[Scale] = None,
    cache: Optional[EngineCache] = None,
    venue_name: str = STREAM_VENUE,
    event_counts: Sequence[int] = STREAM_EVENT_COUNTS,
) -> List[Row]:
    """Incremental stream maintenance vs the from-scratch oracle.

    One synthetic arrive/depart/move stream per event count is replayed
    twice through :class:`~repro.core.stream.ContinuousQuery`: once
    incrementally (Lemma 5.1 settled groups skipped, skip rules applied)
    and once in oracle mode (full recompute per event).  Final answers
    are asserted identical, so the series measures pure maintenance
    cost.  A row's clients are the final crowd; the event counts do
    not scale, so ``scale`` is accepted only for a uniform signature.
    """
    from ..core.stream import ContinuousQuery, synthetic_events

    del scale
    cache = cache or EngineCache()
    engine = cache.engine(venue_name)
    rng = random.Random(zlib_seed("stream", venue_name))
    facilities = random_facility_sets(
        engine.venue, STREAM_FE, STREAM_FN, rng
    )
    rows: List[Row] = []
    for count in event_counts:
        events = synthetic_events(
            engine.venue,
            initial=STREAM_INITIAL,
            events=count,
            seed=zlib_seed("stream-events", venue_name, count),
        )
        finals = {}
        for mode in ("incremental", "oracle"):
            stream = ContinuousQuery(
                engine, facilities, incremental=(mode == "incremental")
            )
            started = time.perf_counter()
            stream.apply_batch(events)
            seconds = time.perf_counter() - started
            final = stream.answer()
            finals[mode] = (final.answer, final.objective, final.status)
            rows.append(
                Row(
                    experiment="replay",
                    venue=venue_name,
                    setting="replay",
                    parameter="events",
                    value=count,
                    algorithm=mode,
                    time_seconds=seconds,
                    memory_mb=0.0,
                    objective=(
                        final.objective
                        if final.objective != float("inf")
                        else None
                    ),
                    clients=stream.client_count,
                )
            )
        if finals["incremental"] != finals["oracle"]:
            raise RuntimeError(
                f"stream experiment: incremental final answer diverged "
                f"from the oracle at events={count}: "
                f"{finals['incremental']} != {finals['oracle']}"
            )
    return rows


#: Every experiment sweep, by the name of the suite it is.
EXPERIMENTS: Dict[str, Callable[..., List[Row]]] = {
    "fig5": fig5,
    "fig6": fig6,
    "fig78": fig78,
    "ablation": ablations,
    "extensions": extensions,
    "parallel": parallel_scaling,
    "replay": stream_replay,
}
