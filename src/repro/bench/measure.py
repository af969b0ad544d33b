"""Measurement primitives for the benchmark harness.

The paper's metrics (Section 6.1.3): mean *query processing time* and
*memory cost* over 10 IFLS queries per configuration.  Time is wall
clock around the algorithm only (index construction is offline); memory
is the peak traced allocation during the query (``tracemalloc``),
covering the algorithm's working state and the per-query distance
caches, which is what the paper's per-query memory cost captures.

The two come from separate passes over the same inputs: ``tracemalloc``
hooks every allocation and slows algorithms by different factors, so a
timer inside it would distort the ratios between them.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.queries import IFLSEngine
from ..core.result import IFLSResult
from ..indoor.entities import Client, FacilitySets


@dataclass
class Measurement:
    """Aggregated runs of one (configuration, algorithm) pair."""

    label: str
    elapsed_seconds: List[float] = field(default_factory=list)
    peak_memory_bytes: List[int] = field(default_factory=list)
    objective: Optional[float] = None
    answer: Optional[int] = None

    @property
    def mean_seconds(self) -> float:
        """Mean wall-clock time over the repetitions."""
        return statistics.fmean(self.elapsed_seconds)

    @property
    def mean_memory_mb(self) -> float:
        """Mean peak traced memory (MB) over the repetitions."""
        return statistics.fmean(self.peak_memory_bytes) / (1024 * 1024)

    def add(self, result: IFLSResult, elapsed: float, peak: int) -> None:
        """Record one repetition."""
        self.elapsed_seconds.append(elapsed)
        self.peak_memory_bytes.append(peak)
        self.objective = result.objective
        self.answer = result.answer


def measure_query(
    engine: IFLSEngine,
    clients: Sequence[Client],
    facilities: FacilitySets,
    algorithm: str,
    objective: str = "minmax",
    repeats: int = 3,
    measure_memory: bool = True,
) -> Measurement:
    """Run one query configuration ``repeats`` times, cold each time.

    Every repetition uses a fresh distance engine (``cold=True``) so
    repeated runs measure the same work instead of cache hits.  Each
    repetition is timed untraced; with ``measure_memory`` its peak comes
    from a second, traced run of the same query (0 otherwise).
    """

    def run() -> IFLSResult:
        return engine.query(
            clients,
            facilities,
            objective=objective,
            algorithm=algorithm,
            cold=True,
        )

    out = Measurement(label=algorithm)
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        peak = traced_peak(run) if measure_memory else 0
        out.add(result, elapsed, peak)
    return out


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak traced allocation (bytes) of one call of ``fn``.

    The memory pass of a measurement: never time a call made here.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def compare(
    engine: IFLSEngine,
    clients: Sequence[Client],
    facilities: FacilitySets,
    algorithms: Sequence[str] = ("efficient", "baseline"),
    objective: str = "minmax",
    repeats: int = 3,
    measure_memory: bool = True,
) -> List[Measurement]:
    """Measure several algorithms on the same inputs."""
    return [
        measure_query(
            engine,
            clients,
            facilities,
            algorithm,
            objective=objective,
            repeats=repeats,
            measure_memory=measure_memory,
        )
        for algorithm in algorithms
    ]


def timed(fn: Callable[[], object]) -> float:
    """Wall-clock a callable once (used by setup-cost reporting)."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
