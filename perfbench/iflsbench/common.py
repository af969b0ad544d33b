"""Shared pieces of the benchmark: paths, statistics, the machine-drift
probe, in-memory spans and the result line.

Nothing here imports ``repro``: the orchestrator must be able to fail
cleanly in a checkout that holds only the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import os
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Run outputs (trace files, server logs); listed in the root .gitignore.
OUT = ROOT / ".perfbench_out"

#: Prefix of the machine-readable lines a worker writes to its stdout.
WIRE = "@@ "

#: Percentiles the tail is chosen from (nearest-rank definition).
TAIL_LADDER = (
    50.0, 75.0, 90.0, 95.0, 98.0, 99.0,
    99.5, 99.8, 99.9, 99.95, 99.98, 99.99,
)
#: The tail is the highest ladder percentile with this many ops beyond.
MIN_BEYOND = 10

#: Relative tolerance of the answer checks: MinDist totals differ in the
#: last digits between solvers because of summation order.
REL_TOL = 1e-9


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, dead
    server, unreadable worker output)."""


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> Dict[str, str]:
    """Environment for processes that run the program.

    The program runs in its default configuration: every ``IFLS_*``
    switch inherited from the caller is dropped, and only the import
    path is set so the checkout's own sources are used.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("IFLS_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def use_program_sources() -> None:
    """Put the checkout's ``src`` first on this process's import path
    and refuse to run against any other copy of ``repro``.  The check
    locates the package without importing it, so start-up stays
    measurable."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("repro")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or SRC not in origin.parents:
        raise BenchError(f"found repro at {origin}, not under {SRC}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n``."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND`` ops
    ranked above it, for a run of ``n`` ops."""
    chosen = None
    for p in TAIL_LADDER:
        if n - nearest_rank(p, n) >= MIN_BEYOND:
            chosen = p
    if chosen is None:
        raise ValueError(
            f"{n} ops leave fewer than {MIN_BEYOND} beyond any "
            f"percentile"
        )
    return chosen


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """p50 and tail of per-op latencies given in seconds.

    Failed ops enter as ``inf``: they miss every latency limit.
    """
    n = len(latencies)
    tail_p = tail_percentile(n)
    return {
        "ops": n,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "tail_p": tail_p,
        "tail_ms": percentile(latencies, tail_p) * 1e3,
        "beyond": n - nearest_rank(tail_p, n),
    }


def class_lines(classes: Dict[str, List[float]]) -> List[str]:
    """One line per op class: its count and p50 (ms)."""
    lines = []
    for name in sorted(classes):
        values = classes[name]
        lines.append(
            f"  class {name:<10} ops {len(values):>6}  "
            f"p50 {percentile(values, 50.0) * 1e3:10.3f} ms"
        )
    return lines


def dist_metrics(totals: Dict[str, int]) -> Dict[str, float]:
    """Distance-engine metrics from a ``DistanceStats`` totals delta."""
    hits = (
        totals.get("d2d_cache_hits", 0)
        + totals.get("imind_cache_hits", 0)
        + totals.get("imind_node_cache_hits", 0)
    )
    computations = totals.get("distance_computations", 0)
    calls = computations + hits
    ratio = hits / calls if calls else 0.0
    return {
        "dist.computations": computations,
        "dist.idist_calls": totals.get("idist_calls", 0),
        "dist.imind_calls": totals.get("imind_calls", 0),
        "dist.imind_node_calls": totals.get("imind_node_calls", 0),
        "dist.d2d_lookups": totals.get("d2d_lookups", 0),
        "dist.kernel_batches": totals.get("kernel_batches", 0),
        "dist.cache_hit_ratio": ratio,
        "session.cache_hit_ratio": ratio,
    }


def same_value(a: float, b: float) -> bool:
    """Objective comparison under :data:`REL_TOL`."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Machine-drift probe
# ----------------------------------------------------------------------
def drift_probe(repeats: int = 5) -> float:
    """Median milliseconds of a fixed stdlib-only loop.

    Printed before and after every run so a failed steadiness check can
    be traced to the machine or to the program.  It never scales,
    filters or retries a measurement.
    """
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) % 7
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1e3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (this one by default) in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is ``(id, parent, name, start, end, attrs)``; the parent is
    the innermost open span of the same thread.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, dict]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = len(self.spans)
            self.spans.append((span_id, -1, name, 0.0, 0.0, attrs))
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield attrs
        finally:
            ended = time.perf_counter()
            stack.pop()
            self._local.last = ended - started
            with self._lock:
                self.spans[span_id] = (
                    span_id, parent, name, started, ended, attrs
                )

    def last(self) -> float:
        """Duration of the span this thread closed most recently."""
        return self._local.last

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        **attrs,
    ) -> int:
        """Record a span measured elsewhere (e.g. by the server)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append((span_id, parent, name, start, end, attrs))
        return span_id

    def totals(self) -> Dict[str, float]:
        """Seconds per span name, children included."""
        out: Dict[str, float] = {}
        for _, _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        own: Dict[str, float] = {}
        child_time: Dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    end - start
                )
        for span_id, _, name, start, end, _ in self.spans:
            own[name] = own.get(name, 0.0) + (
                end - start - child_time.get(span_id, 0.0)
            )
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def finite(value: float) -> float:
    """Failed ops make latencies infinite; JSON has no infinity."""
    return value if math.isfinite(value) else sys.float_info.max


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    """The last stdout line: the benchmark's machine-readable result."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": finite(float(value)), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=False,
    )
