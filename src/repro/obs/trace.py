"""Span-based tracing for IFLS execution.

A :class:`Tracer` records a tree of **spans** — named, nested wall-time
intervals measured with a monotonic clock — so a single query, a warm
session batch, or a sharded parallel run can be read as a timeline:
where did the time go between index descent, facility retrieval,
pruning, and reassembly.  Each span can additionally snapshot a
counter source (anything with a ``snapshot() -> Dict[str, number]``
method, in practice :class:`repro.index.distance.DistanceStats`) on
entry and exit, attaching the **delta** of every counter that moved to
the finished span — the paper's operation counts, localised to one
phase of the algorithm.

The span and metric *names* the library emits are a documented,
stable contract: see :mod:`repro.obs.contract` and
``docs/OBSERVABILITY.md``.

Enablement is process-global: instrumented code calls the module-level
:func:`span` function, which returns a shared no-op context manager
while no tracer is installed.  The disabled cost is one module-global
read per instrumentation point — instrumentation sits at phase
granularity (per query, per traversal, per shard), never inside the
per-dequeue hot loop, so the disabled path stays within noise of the
uninstrumented code (< 2% on the session benchmark).

Usage::

    from repro.obs import Tracer, trace

    tracer = Tracer()
    with trace.use(tracer):
        engine.query(clients, facilities)
    print(format_trace_tree(tracer.sorted_records()))

Worker processes keep their own tracers; their records are merged into
the parent's via :meth:`Tracer.absorb`, which re-indexes the foreign
spans and parents them under the parent's open span.  Span ``start``
offsets are seconds since the *recording process's* tracer epoch —
monotonic clocks are not comparable across processes, so offsets from
different ``pid`` values must not be compared directly.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
    "span",
    "install",
    "uninstall",
    "active",
    "use",
    "next_request_id",
    "dedup_request_ids",
    "set_flight_sink",
    "flight_sink",
]


@dataclass
class SpanRecord:
    """One finished span.

    ``start`` is seconds since the recording tracer's epoch (monotonic,
    per process — see module docstring); ``duration`` is the span's
    wall time in seconds.  ``counters`` holds the per-span delta of
    every counter that changed while the span was open (only non-zero
    entries are kept).  ``parent`` is the index of the enclosing span,
    ``None`` for roots.
    """

    index: int
    name: str
    parent: Optional[int]
    depth: int
    start: float
    duration: float
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the JSON-lines exporter schema)."""
        return {
            "index": self.index,
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": self.attrs,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(payload["index"]),
            name=str(payload["name"]),
            parent=(
                None
                if payload.get("parent") is None
                else int(payload["parent"])
            ),
            depth=int(payload["depth"]),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            pid=int(payload["pid"]),
            attrs=dict(payload.get("attrs", {})),
            counters=dict(payload.get("counters", {})),
        )


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> None:
        """Ignore attributes (tracing is disabled)."""


NULL_SPAN = _NullSpan()


class _Span:
    """An open span; close it by exiting the ``with`` block."""

    __slots__ = (
        "_tracer", "name", "index", "parent", "depth",
        "_start", "_stats", "_before", "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        stats: Optional[Any],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self._stats = stats
        self.attrs = attrs
        self.index = -1
        self.parent: Optional[int] = None
        self.depth = 0
        self._start = 0.0
        self._before: Optional[Dict[str, float]] = None

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.index = tracer._next_index()
        stack = tracer._stack
        self.parent = stack[-1].index if stack else None
        self.depth = stack[-1].depth + 1 if stack else 0
        stack.append(self)
        if self._stats is not None:
            self._before = dict(self._stats.snapshot())
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        tracer = self._tracer
        finished = tracer._clock()
        counters: Dict[str, float] = {}
        if self._before is not None:
            after = self._stats.snapshot()
            before = self._before
            for key, value in after.items():
                delta = value - before.get(key, 0)
                if delta:
                    counters[key] = delta
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        record = SpanRecord(
            index=self.index,
            name=self.name,
            parent=self.parent,
            depth=self.depth,
            start=self._start - tracer.epoch,
            duration=finished - self._start,
            pid=os.getpid(),
            attrs=self.attrs,
            counters=counters,
        )
        tracer.records.append(record)
        sink = _FLIGHT
        if sink is not None:
            sink.record(record)
        return False


class Tracer:
    """Collects span records for one process.

    ``clock`` is injectable for deterministic tests; it must be
    monotonic.  Records accumulate in completion order; use
    :meth:`sorted_records` for start order (what the exporters emit).
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self.epoch = clock()
        self.records: List[SpanRecord] = []
        self._stack: List[_Span] = []
        self._counter = 0

    def _next_index(self) -> int:
        index = self._counter
        self._counter += 1
        return index

    def span(
        self, name: str, stats: Optional[Any] = None, **attrs
    ) -> _Span:
        """Open a span (use as a context manager).

        ``stats`` is an optional counter source with a ``snapshot()``
        method; its per-span delta lands in ``SpanRecord.counters``.
        Keyword arguments become span attributes.
        """
        return _Span(self, name, stats, attrs)

    def sorted_records(self) -> List[SpanRecord]:
        """Finished spans in start (index) order."""
        return sorted(self.records, key=lambda record: record.index)

    def absorb(self, records: Iterable[SpanRecord]) -> None:
        """Merge foreign span records (e.g. from a worker process).

        Records are re-indexed into this tracer's sequence, internal
        parent links are remapped, and foreign *root* spans are
        parented under this tracer's currently open span (if any) with
        depths shifted accordingly.  ``start`` offsets are kept as
        recorded — they are only comparable within one ``pid``.
        """
        base_parent = (
            self._stack[-1].index if self._stack else None
        )
        base_depth = (
            self._stack[-1].depth + 1 if self._stack else 0
        )
        remap: Dict[int, int] = {}
        for record in sorted(records, key=lambda item: item.index):
            new_index = self._next_index()
            remap[record.index] = new_index
            if record.parent is not None and record.parent in remap:
                parent = remap[record.parent]
                depth = record.depth + base_depth
            else:
                parent = base_parent
                depth = base_depth
            self.records.append(
                SpanRecord(
                    index=new_index,
                    name=record.name,
                    parent=parent,
                    depth=depth,
                    start=record.start,
                    duration=record.duration,
                    pid=record.pid,
                    attrs=dict(record.attrs),
                    counters=dict(record.counters),
                )
            )


# ---------------------------------------------------------------------------
# Process-global enablement
# ---------------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None

# The always-on flight recorder, when one is installed.  Finished spans
# are forwarded to it *in addition to* the active tracer's record list;
# when no tracer is installed the module-level :func:`span` still
# captures flat spans into the sink so the recorder sees traffic even
# with tracing off.  Typed as ``Any`` to avoid a circular import with
# :mod:`repro.obs.flight`; the only requirements are ``record(record)``
# and ``span(name, stats=..., **attrs)``.
_FLIGHT: Optional[Any] = None

_REQUEST_ID_LOCK = threading.Lock()
_REQUEST_ID_COUNT = 0


def next_request_id(prefix: str = "q") -> str:
    """Mint a process-unique, monotonic request id (e.g. ``"r17"``).

    One shared sequence backs every prefix, so ids are unique across
    the service (``"r"``) and library (``"q"``) minting points even
    when both run in one process.
    """
    global _REQUEST_ID_COUNT
    with _REQUEST_ID_LOCK:
        _REQUEST_ID_COUNT += 1
        return f"{prefix}{_REQUEST_ID_COUNT}"


def dedup_request_ids(ids: Iterable[str]) -> tuple:
    """Distinct non-empty request ids, first-seen order preserved.

    The span-attribute spelling shared by every layer that groups
    several correlated queries (shards, coalesced flushes).
    """
    seen: List[str] = []
    for request_id in ids:
        if request_id and request_id not in seen:
            seen.append(request_id)
    return tuple(seen)


def set_flight_sink(sink: Optional[Any]) -> Optional[Any]:
    """Install ``sink`` as the process-global flight recorder; returns
    the previous sink (``None`` disables forwarding)."""
    global _FLIGHT
    previous = _FLIGHT
    _FLIGHT = sink
    return previous


def flight_sink() -> Optional[Any]:
    """The installed flight sink, or ``None``."""
    return _FLIGHT


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Make ``tracer`` the process-global tracer; returns the previous
    one (``None`` disables tracing)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active."""
    return install(None)


def active() -> Optional[Tracer]:
    """The process-global tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def span(name: str, stats: Optional[Any] = None, **attrs):
    """Open a span on the active tracer (no-op when tracing is off).

    This is the function instrumented library code calls; the disabled
    path is one global read plus returning a shared null object.
    """
    tracer = _ACTIVE
    if tracer is None:
        sink = _FLIGHT
        if sink is None:
            return NULL_SPAN
        return sink.span(name, stats=stats, **attrs)
    return tracer.span(name, stats=stats, **attrs)


@contextmanager
def use(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope-install a tracer, restoring the previous one on exit."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)
