"""Request coalescing: one flusher in front of the service's session.

Concurrent ``POST /query`` and ``POST /batch`` clients submit their
queries to one :class:`Coalescer`:

* :meth:`submit` parks each request with an ``asyncio`` future on a
  pending list;
* one flusher takes the whole pending list as soon as the previous
  flush ends, so requests that arrive during a flush share the next
  one.  It answers the list in a worker thread on the service's
  resident session and resolves every future with its own
  :class:`~repro.core.request.QueryResponse` or its own exception: a
  query whose solve fails never fails its co-batched strangers.  Only
  an error outside every solve (the runner itself raising) fails the
  whole flush;
* a request whose future is already done when its flush starts (its
  caller timed out) is dropped rather than solved, and only the
  futures a flush resolves count as answered.

A flush starts without waiting for company: its queries are solved one
after another, so they share no work and a wait would only delay them.

``drain()`` stops intake and flushes what is pending — the graceful-
shutdown hook: in-flight batches complete, queued requests are
answered, and only then does the server close.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Tuple, Union

from ..core.request import QueryRequest, QueryResponse
from ..errors import ServiceError
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["Coalescer"]

#: A runner answers an ordered request list and returns, in the same
#: order, each request's response or the exception its solve raised
#: (the service's resident session answers; runs in a thread).
BatchRunner = Callable[
    [List[QueryRequest]], List[Union[QueryResponse, Exception]]
]


class Coalescer:
    """An asyncio request-coalescing queue in front of a batch runner.

    Parameters
    ----------
    runner:
        Synchronous callable answering one request list (executed via
        ``loop.run_in_executor``, so it may block).  It never runs
        twice at once: the one flusher awaits each flush before it
        takes the next.
    executor:
        The executor flushes run on.  The service passes a dedicated
        one: sharing the loop's *default* executor with application
        threads invites starvation (client threads occupying every
        slot while the flush that would unblock them waits in the
        queue).  ``None`` uses the loop default.
    """

    def __init__(self, runner: BatchRunner, executor=None) -> None:
        self.runner = runner
        self.executor = executor
        self._pending: List[
            Tuple[QueryRequest, "asyncio.Future[QueryResponse]"]
        ] = []
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._draining = False
        self._inflight_flushes = 0
        self.batches_flushed = 0
        self.queries_answered = 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    async def submit(
        self, request: QueryRequest
    ) -> QueryResponse:
        """Queue one request; resolves with its response after the
        flush that carries it."""
        if self._draining:
            raise ServiceError(
                "service is draining; no new queries accepted"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryResponse]" = loop.create_future()
        self._pending.append((request, future))
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_pending())
        return await future

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    async def _flush_pending(self) -> None:
        """Flush batches until nothing is pending.

        Loops rather than flushing once: requests that arrive while a
        flush is inside the executor see a live flusher task and rely
        on this loop to pick them up afterwards.
        """
        while self._pending:
            await self._flush_now()

    async def _flush_now(self) -> None:
        # A future that is already done belongs to a caller that gave
        # up (its timeout cancelled it): solving it would be wasted.
        batch = [
            (request, future)
            for request, future in self._pending
            if not future.done()
        ]
        self._pending = []
        if not batch:
            return
        loop = asyncio.get_running_loop()
        requests = [request for request, _future in batch]
        started = time.perf_counter()
        self._inflight_flushes += 1
        span_attrs = {"queries": len(requests)}
        request_ids = _trace.dedup_request_ids(
            request.request_id for request in requests
        )
        if request_ids:
            span_attrs["request_ids"] = list(request_ids)
        try:
            with _trace.span("service.batch.flush", **span_attrs):
                outcomes = await loop.run_in_executor(
                    self.executor, self.runner, requests
                )
        except Exception as exc:
            for _request, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            self._inflight_flushes -= 1
            _metrics.record("service.batch.size", len(requests))
            _metrics.record(
                "service.batch.flush.seconds",
                time.perf_counter() - started,
            )
        self.batches_flushed += 1
        for (_request, future), outcome in zip(batch, outcomes):
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
                continue
            self.queries_answered += 1
            future.set_result(outcome)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work, then flush and await everything pending."""
        self._draining = True
        if self._flusher is not None and not self._flusher.done():
            await self._flusher
        while self._pending:
            await self._flush_now()
        # Let any in-executor flush complete its future resolution.
        while self._inflight_flushes:
            await asyncio.sleep(0.005)

    @property
    def pending(self) -> int:
        """Requests currently waiting for a flush."""
        return len(self._pending)

    @property
    def flushing(self) -> bool:
        """Whether a flush is inside the executor.

        The count behind it changes on the event loop, before each
        dispatch and after each return, so a reader on the loop that
        sees ``False`` knows no runner thread is running.
        """
        return self._inflight_flushes > 0
