"""The asyncio HTTP server of the long-lived IFLS query service.

One :class:`IFLSService` owns a venue opened through
:func:`repro.open_venue`, a :class:`~repro.service.pool.SessionPool`
of warm sessions over the engine's shared
:class:`~repro.index.snapshot.IndexSnapshot`, and a
:class:`~repro.service.batcher.Coalescer` that micro-batches
concurrent traffic into serial ``QuerySession.run`` calls on one
pooled session per flush.

Endpoints
---------
``POST /query``
    One :class:`~repro.core.request.QueryRequest` payload in, one
    :class:`~repro.core.request.QueryResponse` payload out.  Single
    queries still travel through the coalescer, so simultaneous
    clients share a flush (and a warm session).
``POST /batch``
    An ordered request array in, ``{"responses": [...]}`` out in the
    same order.
``GET /metrics``
    Live export of the observability contract: the service's
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot, the pool's
    merged distance ledger (with invariant check), pool and batcher
    statistics.
``GET /health``
    Liveness + identity (venue, backend, kernel path, uptime).
``GET /explain/<id>``
    A stored :class:`~repro.obs.explain.ExplainReport` for a query
    submitted with ``"explain": true``; the response's ``explain_id``
    names it.
``POST /stream``
    Open a resident :class:`~repro.core.stream.ContinuousQuery` over a
    facility configuration; answers ``{"stream_id": ...}``.  The
    stream keeps its own warm session off the pool's shared snapshot,
    so distance memos survive across event batches.
``POST /stream/<id>/events``
    Apply an ordered :class:`~repro.core.stream.ClientEvent` array to
    a stream; answers the per-event incremental
    :class:`~repro.core.stream.StreamAnswer` payloads plus cumulative
    stream statistics.  Batches on one stream are serialised; events
    applied before a mid-batch error stay applied.
``GET /stream/<id>`` / ``DELETE /stream/<id>``
    The stream's current answer + statistics, and stream teardown.

Errors map to statuses in exactly one place
(:func:`repro.service.protocol.error_body` over
:func:`repro.errors.http_status_for`): malformed payloads → 400,
timeouts → 504, everything unexpected → 500.  Shutdown is graceful by
default: the listener closes first, in-flight batches drain, then the
pool retires its sessions.
"""

from __future__ import annotations

import asyncio
import sys
import time
import urllib.parse
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.problem import check_query_inputs
from ..core.request import QueryRequest, QueryResponse
from ..core.session import check_batch
from ..core.stream import STREAM_FORMAT, ContinuousQuery
from ..errors import (
    ProtocolError,
    QueryError,
    RequestTimeout,
    ServiceError,
)
from ..obs import flight as _flight
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.flight import FlightRecorder
from ..obs.logging import StructuredLog
from ..obs.metrics import MetricsRegistry
from ..obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from .batcher import Coalescer
from .pool import SessionPool
from .protocol import (
    HttpRequest,
    PlainTextBody,
    content_length,
    error_body,
    parse_batch_payload,
    parse_events_payload,
    parse_head,
    parse_query_payload,
    parse_stream_open_payload,
    render_body,
    request_id_path,
)

__all__ = ["IFLSService", "ServiceConfig", "run_service"]

#: How long the server waits for a complete request head + body.
READ_TIMEOUT_SECONDS = 10.0


@dataclass
class ServiceConfig:
    """Tunables of one :class:`IFLSService` instance."""

    host: str = "127.0.0.1"
    port: int = 8337
    pool_size: int = 2
    max_cache_entries: Optional[int] = None
    cache_bytes_budget: Optional[int] = None
    flush_window: float = 0.01
    max_batch: int = 64
    request_timeout: Optional[float] = 30.0
    explain_capacity: int = 128
    stream_capacity: int = 32
    flight_capacity: int = 256
    slow_query_seconds: Optional[float] = 1.0
    flight_dump_last: int = 16
    log_stream: Optional[Any] = None


@dataclass
class _StreamState:
    """One resident continuous query plus its serialisation lock."""

    query: ContinuousQuery
    lock: asyncio.Lock
    label: str


class IFLSService:
    """A venue resident in memory, answering IFLS queries over HTTP.

    Build one from an :class:`~repro.api.Engine`
    (``engine.serve(port=0)``) or straight from a venue source::

        service = repro.open_venue("CPH").serve(port=8337)
        asyncio.run(service.run())

    ``config`` wins when given; otherwise keyword overrides patch a
    default :class:`ServiceConfig`.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        **overrides: Any,
    ) -> None:
        if config is not None and overrides:
            raise ServiceError(
                "pass either a ServiceConfig or keyword overrides, "
                "not both"
            )
        self.engine = engine
        self.config = config or ServiceConfig(**overrides)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity,
            slow_threshold_seconds=self.config.slow_query_seconds,
        )
        self.log: Optional[StructuredLog] = (
            StructuredLog(self.config.log_stream)
            if self.config.log_stream is not None
            else None
        )
        self.pool = SessionPool(
            engine.snapshot(),
            size=self.config.pool_size,
            max_cache_entries=self.config.max_cache_entries,
            cache_bytes_budget=self.config.cache_bytes_budget,
        )
        # Flushes get their own executor: on the loop's shared default
        # executor, blocked application threads could starve the very
        # flush that would unblock them.
        self._flush_executor = ThreadPoolExecutor(
            max_workers=self.config.pool_size,
            thread_name_prefix="ifls-flush",
        )
        self.coalescer = Coalescer(
            self._run_batch,
            flush_window=self.config.flush_window,
            max_batch=self.config.max_batch,
            executor=self._flush_executor,
        )
        self._explain_store: "OrderedDict[str, Dict[str, Any]]" = (
            OrderedDict()
        )
        self._explain_seq = 0
        self._streams: "OrderedDict[str, _StreamState]" = (
            OrderedDict()
        )
        self._stream_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._previous_metrics: Optional[MetricsRegistry] = None
        self._previous_flight: Optional[FlightRecorder] = None
        self._owns_metrics = False
        self._owns_flight = False
        self._started_monotonic: Optional[float] = None
        self._inflight = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "IFLSService":
        """Bind the listener; install the service metrics registry and
        the always-on flight recorder."""
        if self._server is not None:
            raise ServiceError("service is already started")
        self._previous_metrics = _metrics.install(self.metrics)
        self._owns_metrics = True
        self._previous_flight = _flight.install(self.flight)
        self._owns_flight = True
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )
        self._started_monotonic = time.monotonic()
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``http://host:port`` of the running listener."""
        return f"http://{self.config.host}:{self.port}"

    async def run(self) -> None:
        """Start (if needed) and serve until cancelled, then drain."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting connections; by default drain in-flight work.

        Draining closes the listener first, lets every accepted request
        finish (flushing whatever the coalescer holds), then retires
        the pool.  ``drain=False`` abandons queued work (their futures
        fail with :class:`~repro.errors.ServiceError`).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            await self.coalescer.drain()
            while self._inflight:
                await asyncio.sleep(0.005)
        self.pool.close()
        self._streams.clear()
        self._flush_executor.shutdown(wait=drain)
        if self._owns_flight:
            _flight.install(self._previous_flight)
            self._owns_flight = False
            self._previous_flight = None
        if self._owns_metrics:
            _metrics.install(self._previous_metrics)
            self._owns_metrics = False
            self._previous_metrics = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._inflight += 1
        try:
            payload = await self._respond(reader)
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._inflight -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> bytes:
        """Read one request and produce the full response bytes.

        Every request — error responses included — gets a monotonic
        correlation id (``r…``) minted here; the id tags the
        ``service.request`` span, travels into the coalescer and the
        pool through the request payloads, and names the structured
        log line.  A 5xx answer dumps the flight recorder's tail.
        """
        started = time.perf_counter()
        method, path = "?", "?"
        request_id = _trace.next_request_id("r")
        try:
            request = await self._read_request(reader)
            method, path = request.method, request.path
            with _trace.span(
                "service.request",
                method=method,
                path=path,
                request_id=request_id,
            ):
                status, body = await self._dispatch(
                    request, request_id
                )
        except Exception as exc:  # noqa: BLE001 - the edge maps all
            status, body = error_body(exc)
            _metrics.add("service.errors")
            if isinstance(exc, RequestTimeout):
                _metrics.add("service.timeouts")
        _metrics.add("service.requests")
        elapsed = time.perf_counter() - started
        _metrics.record("service.request.seconds", elapsed)
        self._log_request(
            request_id, method, path, status, elapsed, body
        )
        if status >= 500:
            self._dump_flight(request_id, f"http_{status}")
        return render_body(status, body)

    def _log_request(
        self,
        request_id: str,
        method: str,
        path: str,
        status: int,
        elapsed: float,
        body: Any,
    ) -> None:
        """Emit the one structured JSON log line of a finished request."""
        if self.log is None:
            return
        fields: Dict[str, Any] = {
            "request_id": request_id,
            "method": method,
            "path": path,
            "status": status,
            "seconds": round(elapsed, 6),
            "backend": self.engine.backend,
        }
        if isinstance(body, dict):
            if "error" in body:
                fields["error"] = body["error"]
            if "objective" in body:
                fields["objective"] = body["objective"]
                fields["algorithm"] = "efficient"
            if "answer" in body:
                fields["answer"] = body["answer"]
            if "distance_delta" in body:
                fields["distance_delta"] = body["distance_delta"]
            if "elapsed_seconds" in body:
                fields["solver_seconds"] = body["elapsed_seconds"]
            stats = body.get("stats")
            if isinstance(stats, dict):
                fields["tiers"] = {
                    "skips": stats.get("skips", 0),
                    "partial": stats.get("partial_solves", 0),
                    "full": stats.get("full_recomputes", 0),
                }
        self.log.emit("service.request", **fields)

    def _dump_flight(self, request_id: str, trigger: str) -> None:
        """Log the flight recorder's tail after a server-side failure."""
        if self.log is None:
            return
        dump = self.flight.dump(last=self.config.flight_dump_last)
        self.log.emit(
            "flight.dump",
            request_id=request_id,
            trigger=trigger,
            **dump,
        )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> HttpRequest:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=READ_TIMEOUT_SECONDS,
            )
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-request ({exc})"
            )
        except asyncio.LimitOverrunError:
            raise ProtocolError("request head too large")
        except asyncio.TimeoutError:
            raise ProtocolError("timed out reading the request")
        request = parse_head(head)
        length = content_length(request)
        if length:
            try:
                request.body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=READ_TIMEOUT_SECONDS,
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                raise ProtocolError(
                    f"request body truncated ({exc})"
                )
        return request

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: HttpRequest, request_id: str
    ) -> Tuple[int, Any]:
        path, _, query_string = request.path.partition("?")
        params = urllib.parse.parse_qs(query_string)
        if path == "/query":
            if request.method != "POST":
                return self._method_not_allowed(request)
            query = parse_query_payload(request.json())
            self._validate_for_service(query)
            query = replace(query, request_id=request_id)
            response = await self._answer(query)
            return 200, response.to_payload()
        if path == "/batch":
            if request.method != "POST":
                return self._method_not_allowed(request)
            queries = parse_batch_payload(request.json())
            for query in queries:
                self._validate_for_service(query)
            queries = [
                replace(query, request_id=request_id)
                for query in queries
            ]
            responses = await self._answer_many(queries)
            return 200, {
                "responses": [r.to_payload() for r in responses]
            }
        if path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed(request)
            if self._wants_prometheus(request, params):
                return 200, PlainTextBody(
                    render_prometheus(self.metrics.snapshot()),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            return 200, self.metrics_payload()
        if path == "/health":
            if request.method != "GET":
                return self._method_not_allowed(request)
            return 200, self.health_payload()
        if path == "/debug/flight":
            if request.method != "GET":
                return self._method_not_allowed(request)
            return 200, self.flight.dump(
                last=self._last_param(params)
            )
        if path == "/stream":
            if request.method != "POST":
                return self._method_not_allowed(request)
            return await self._open_stream(request.json())
        if path.startswith("/stream/"):
            rest = path[len("/stream/"):]
            if rest.endswith("/events"):
                stream_id = rest[: -len("/events")]
                if stream_id and "/" not in stream_id:
                    if request.method != "POST":
                        return self._method_not_allowed(request)
                    return await self._apply_stream_events(
                        stream_id, request.json(), request_id
                    )
            elif rest and "/" not in rest:
                if request.method == "GET":
                    return self._stream_payload(rest)
                if request.method == "DELETE":
                    return self._close_stream(rest)
                return self._method_not_allowed(request)
        explain_id = request_id_path(path, "/explain/")
        if explain_id is not None:
            if request.method != "GET":
                return self._method_not_allowed(request)
            report = self._explain_store.get(explain_id)
            if report is None:
                return 404, {
                    "error": "NotFound",
                    "detail": (
                        f"no stored explain report {explain_id!r}"
                    ),
                    "status": 404,
                }
            return 200, {"explain_id": explain_id, "report": report}
        return 404, {
            "error": "NotFound",
            "detail": f"no route for {request.method} {path}",
            "status": 404,
        }

    @staticmethod
    def _method_not_allowed(
        request: HttpRequest,
    ) -> Tuple[int, Any]:
        return 405, {
            "error": "MethodNotAllowed",
            "detail": (
                f"{request.method} is not supported on "
                f"{request.path}"
            ),
            "status": 405,
        }

    @staticmethod
    def _wants_prometheus(
        request: HttpRequest, params: Dict[str, List[str]]
    ) -> bool:
        """Negotiate the ``GET /metrics`` representation.

        An explicit ``?format=`` parameter wins (``prometheus`` →
        text exposition, anything else → JSON); otherwise an
        ``Accept`` header asking for ``text/plain`` or OpenMetrics
        selects the exposition format.
        """
        fmt = params.get("format")
        if fmt:
            return fmt[-1].lower() == "prometheus"
        accept = request.headers.get("accept", "").lower()
        return "text/plain" in accept or "openmetrics" in accept

    @staticmethod
    def _last_param(
        params: Dict[str, List[str]],
    ) -> Optional[int]:
        """Decode the optional ``?last=N`` of ``GET /debug/flight``."""
        raw = params.get("last")
        if not raw:
            return None
        try:
            value = int(raw[-1])
        except ValueError:
            raise ProtocolError(
                f"bad 'last' parameter {raw[-1]!r}: not an integer"
            )
        if value < 0:
            raise ProtocolError(
                f"bad 'last' parameter {value}: must be >= 0"
            )
        return value

    def _validate_for_service(self, request: QueryRequest) -> None:
        """Reject a request the flush would fail on *before* it joins
        one (a bad request must never fail its co-batched strangers):
        the executors' batch check, then the IFLS input rules against
        the resident venue."""
        check_batch([request])
        check_query_inputs(
            self.engine.venue, request.clients, request.facilities
        )

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    async def _answer(self, request: QueryRequest) -> QueryResponse:
        """Submit one request to the coalescer under its timeout."""
        timeout = (
            request.timeout_seconds
            if request.timeout_seconds is not None
            else self.config.request_timeout
        )
        submission = self.coalescer.submit(request)
        if timeout is None:
            return await submission
        try:
            return await asyncio.wait_for(submission, timeout)
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"query did not complete within {timeout}s"
            )

    async def _answer_many(
        self, requests: List[QueryRequest]
    ) -> List[QueryResponse]:
        outcomes = await asyncio.gather(
            *(self._answer(request) for request in requests),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    def _run_batch(
        self, requests: List[QueryRequest]
    ) -> List[QueryResponse]:
        """One coalesced flush: answer everything on a pooled session.

        Runs in a worker thread (the coalescer's executor call).  The
        borrowed session is exclusively ours until checkin, so its
        ``DistanceStats`` ledger sees single-threaded increments only;
        the pool folds the delta into its merged ledger afterwards.
        """
        responses: List[Optional[QueryResponse]] = [None] * len(
            requests
        )
        plain = [
            i for i, r in enumerate(requests) if not r.explain
        ]
        explained = [
            i for i, r in enumerate(requests) if r.explain
        ]
        request_ids = _trace.dedup_request_ids(
            request.request_id for request in requests
        )
        with self.pool.session(request_ids=request_ids) as session:
            if plain:
                results = session.run([requests[i] for i in plain])
                for j, i in enumerate(plain):
                    responses[i] = QueryResponse.from_result(
                        results[j], requests[i], index=i
                    )
            for i in explained:
                responses[i] = self._run_explained(
                    session, requests[i], i
                )
        return [r for r in responses if r is not None]

    def _run_explained(
        self, session, request: QueryRequest, index: int
    ) -> QueryResponse:
        """Answer one ``"explain": true`` request, storing its report."""
        session.explain = True
        try:
            result = session.answer(request, "")
        finally:
            session.explain = False
        report = (
            session.explain_reports.pop()
            if session.explain_reports
            else None
        )
        explain_id = (
            self._store_explain(report.to_dict())
            if report is not None
            else None
        )
        return QueryResponse.from_result(
            result, request, index=index, explain_id=explain_id
        )

    # ------------------------------------------------------------------
    # Continuous streams
    # ------------------------------------------------------------------
    async def _open_stream(self, payload: Any) -> Tuple[int, Any]:
        """``POST /stream``: open one resident continuous query.

        Each stream gets its own warm session off the pool's shared
        snapshot (venue + tree shared read-only, private distance
        memos), so cross-event cache hits survive between batches
        without contending with the pooled interactive sessions.
        """
        facilities, incremental, label = parse_stream_open_payload(
            payload
        )
        if len(self._streams) >= self.config.stream_capacity:
            raise QueryError(
                f"stream capacity {self.config.stream_capacity} "
                "exhausted; DELETE an open stream first"
            )
        session = self.pool.snapshot.session(
            max_cache_entries=self.config.max_cache_entries,
            keep_records=False,
        )
        query = ContinuousQuery(
            facilities=facilities,
            incremental=incremental,
            session=session,
        )
        self._stream_seq += 1
        stream_id = f"s{self._stream_seq}"
        self._streams[stream_id] = _StreamState(
            query=query, lock=asyncio.Lock(), label=label
        )
        return 200, {
            "stream_id": stream_id,
            "format": STREAM_FORMAT,
            "incremental": incremental,
            "label": label,
        }

    async def _apply_stream_events(
        self, stream_id: str, payload: Any, request_id: str = ""
    ) -> Tuple[int, Any]:
        """``POST /stream/<id>/events``: apply one ordered batch.

        Batches on the same stream serialise on its lock; the blocking
        solver work runs on the flush executor so the event loop stays
        responsive.  A mid-batch error (e.g. removing an unknown
        client) leaves the already-applied prefix applied — events are
        validated before mutation, so the stream state stays coherent.
        The request's correlation id tags every per-event
        ``stream.event`` span of the batch.
        """
        state = self._streams.get(stream_id)
        if state is None:
            return self._stream_not_found(stream_id)
        events = parse_events_payload(payload)
        loop = asyncio.get_running_loop()
        async with state.lock:
            answers = await loop.run_in_executor(
                self._flush_executor,
                state.query.apply_batch,
                events,
                request_id,
            )
        return 200, {
            "stream_id": stream_id,
            "format": STREAM_FORMAT,
            "answers": [a.to_payload() for a in answers],
            "stats": asdict(state.query.stats),
            "client_count": state.query.client_count,
        }

    def _stream_payload(self, stream_id: str) -> Tuple[int, Any]:
        """``GET /stream/<id>``: the current answer + statistics."""
        state = self._streams.get(stream_id)
        if state is None:
            return self._stream_not_found(stream_id)
        query = state.query
        return 200, {
            "stream_id": stream_id,
            "format": STREAM_FORMAT,
            "incremental": query.incremental,
            "label": state.label,
            "client_count": query.client_count,
            "answer": query.answer().to_payload(),
            "stats": asdict(query.stats),
        }

    def _close_stream(self, stream_id: str) -> Tuple[int, Any]:
        """``DELETE /stream/<id>``: drop the stream and its session."""
        state = self._streams.pop(stream_id, None)
        if state is None:
            return self._stream_not_found(stream_id)
        return 200, {
            "stream_id": stream_id,
            "closed": True,
            "events": state.query.stats.events,
        }

    @staticmethod
    def _stream_not_found(stream_id: str) -> Tuple[int, Any]:
        return 404, {
            "error": "NotFound",
            "detail": f"no open stream {stream_id!r}",
            "status": 404,
        }

    def _store_explain(self, report: Dict[str, Any]) -> str:
        """Keep a report retrievable, bounded by ``explain_capacity``."""
        self._explain_seq += 1
        explain_id = f"q{self._explain_seq}"
        self._explain_store[explain_id] = report
        while len(self._explain_store) > self.config.explain_capacity:
            self._explain_store.popitem(last=False)
        return explain_id

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        """The ``GET /health`` body: liveness plus gauge snapshots of
        the pool, the resident streams, and the flight recorder."""
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        pool_stats = self.pool.stats()
        return {
            "status": "draining" if self._draining else "ok",
            "venue": self.engine.venue.name,
            "backend": self.engine.backend,
            "use_kernels": self.engine.use_kernels,
            "uptime_seconds": uptime,
            "queries_answered": self.coalescer.queries_answered,
            "pool": {
                "sessions": pool_stats.created,
                "idle": pool_stats.idle,
                "checked_out": pool_stats.checked_out,
                "cache_bytes": pool_stats.cache_bytes,
            },
            "streams": {
                "open": len(self._streams),
                "capacity": self.config.stream_capacity,
            },
            "flight": {
                "capacity": self.flight.capacity,
                "records": self.flight.resident,
                "dropped": self.flight.dropped,
                "slow_queries": self.flight.slow_total,
            },
        }

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: the live obs-contract export."""
        ledger = self.pool.ledger()
        return {
            "metrics": self.metrics.snapshot(),
            "ledger": ledger,
            "ledger_violations": self.pool.ledger_violations(),
            "pool": asdict(self.pool.stats()),
            "batcher": {
                "batches_flushed": self.coalescer.batches_flushed,
                "queries_answered": self.coalescer.queries_answered,
                "pending": self.coalescer.pending,
            },
            "streams": {
                "open": len(self._streams),
                "capacity": self.config.stream_capacity,
                "events": sum(
                    s.query.stats.events
                    for s in self._streams.values()
                ),
            },
        }


def run_service(
    engine, config: Optional[ServiceConfig] = None, **overrides: Any
) -> None:
    """Blocking convenience runner with signal-driven graceful drain.

    Serves until ``SIGINT``/``SIGTERM`` (or KeyboardInterrupt where
    signal handlers are unavailable), then drains in-flight batches
    before returning — the CLI entry point of ``ifls serve``.
    """
    service = IFLSService(engine, config=config, **overrides)
    if service.log is None:
        # The CLI runner always logs structurally; the first line is
        # the machine-readable ``service.start`` event tooling parses
        # for the bound address (tools/service_smoke.py).
        service.log = StructuredLog(sys.stdout)

    async def _main() -> None:
        import signal

        await service.start()
        assert service.log is not None
        service.log.emit(
            "service.start",
            address=service.address,
            venue=service.engine.venue.name,
            backend=service.engine.backend,
            pool=service.config.pool_size,
            listening=f"listening on {service.address}",
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame), stop.set
                )
            except (NotImplementedError, OSError):
                pass
        server_task = asyncio.ensure_future(service.run())
        stopper = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {server_task, stopper},
            return_when=asyncio.FIRST_COMPLETED,
        )
        stopper.cancel()
        server_task.cancel()
        await asyncio.gather(server_task, return_exceptions=True)
        await service.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
