"""Request coalescing: micro-batching concurrent queries into sessions.

Concurrent ``POST /batch`` clients each carry a handful of queries; the
efficient way to answer them is *together*, through one warm
``QuerySession.run(batch)`` call, so cache warmth amortises across
requests that arrived within the same few milliseconds.
:class:`Coalescer` implements that:

* :meth:`submit` parks each request with an ``asyncio`` future on a
  pending list;
* the first arrival starts the flush clock (``flush_window`` seconds);
  the window lets strangers coalesce, and a full batch
  (``max_batch``) flushes immediately;
* one flush takes the whole pending list, answers it in a worker
  thread on a pooled session, and resolves every future with its
  :class:`~repro.core.request.QueryResponse` (or exception — one
  query's failure never poisons its co-batched strangers' event loop,
  though a shared solver error fails the whole flush).

``drain()`` stops intake and flushes what is pending — the graceful-
shutdown hook: in-flight batches complete, queued requests are
answered, and only then does the server close.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Tuple

from ..core.request import QueryRequest, QueryResponse
from ..errors import ServiceError
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["Coalescer"]

#: A runner answers an ordered request list and returns ordered
#: responses (typically SessionPool-backed; runs in a thread).
BatchRunner = Callable[[List[QueryRequest]], List[QueryResponse]]


class Coalescer:
    """An asyncio request-coalescing queue in front of a batch runner.

    Parameters
    ----------
    runner:
        Synchronous callable answering one request list (executed via
        ``loop.run_in_executor``, so it may block).
    flush_window:
        Seconds the first request of a batch waits for company.
        ``0`` still yields once to the loop, coalescing only what is
        already queued.
    max_batch:
        Flush immediately once this many requests are pending.
    executor:
        The executor flushes run on.  The service passes a dedicated
        one: sharing the loop's *default* executor with application
        threads invites starvation (client threads occupying every
        slot while the flush that would unblock them waits in the
        queue).  ``None`` uses the loop default.
    """

    def __init__(
        self,
        runner: BatchRunner,
        flush_window: float = 0.01,
        max_batch: int = 64,
        executor=None,
    ) -> None:
        if flush_window < 0:
            raise ServiceError(
                f"flush_window must be >= 0, got {flush_window}"
            )
        if max_batch < 1:
            raise ServiceError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self.runner = runner
        self.flush_window = flush_window
        self.max_batch = max_batch
        self.executor = executor
        self._pending: List[
            Tuple[QueryRequest, "asyncio.Future[QueryResponse]"]
        ] = []
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._draining = False
        self._inflight_flushes = 0
        self._flush_wakeup: Optional["asyncio.Event"] = None
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
        if self._flush_wakeup is None:
            self._flush_wakeup = asyncio.Event()
        if len(self._pending) >= self.max_batch:
            self._flush_wakeup.set()
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_soon())
        return await future

    async def submit_many(
        self, requests: List[QueryRequest]
    ) -> List[QueryResponse]:
        """Queue a client's whole batch; order of responses matches."""
        return list(
            await asyncio.gather(
                *(self.submit(request) for request in requests)
            )
        )

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    async def _flush_soon(self) -> None:
        """Flush batches until nothing is pending.

        Loops rather than flushing once: requests that arrive while a
        flush is inside the executor see a live flusher task and rely
        on this loop to pick them up afterwards.
        """
        while self._pending:
            if self.flush_window > 0:
                wakeup = self._flush_wakeup
                try:
                    assert wakeup is not None
                    await asyncio.wait_for(
                        wakeup.wait(), timeout=self.flush_window
                    )
                except asyncio.TimeoutError:
                    pass
                wakeup.clear()
            else:
                await asyncio.sleep(0)
            await self._flush_now()

    async def _flush_now(self) -> None:
        batch = self._pending
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
                responses = await loop.run_in_executor(
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
        self.queries_answered += len(responses)
        for (_request, future), response in zip(batch, responses):
            if not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new work, then flush and await everything pending."""
        self._draining = True
        if self._flusher is not None and not self._flusher.done():
            if self._flush_wakeup is not None:
                self._flush_wakeup.set()
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
