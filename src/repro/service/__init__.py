"""Long-lived IFLS query service.

Loads a venue + VIP-tree once and answers IFLS queries over HTTP/JSON
from persistent warm sessions:

* :mod:`repro.service.pool` — per-venue pools of warm
  :class:`~repro.core.session.QuerySession` objects over one shared
  :class:`~repro.index.snapshot.IndexSnapshot`, with per-session
  distance ledgers merged on checkin and cache-budget eviction under
  memory pressure;
* :mod:`repro.service.batcher` — a request-coalescing queue that
  micro-batches concurrent ``POST /batch`` traffic into one serial
  ``QuerySession.run`` per flush, behind a configurable flush window;
* :mod:`repro.service.protocol` — the HTTP/JSON wire layer over the
  shared :class:`~repro.core.request.QueryRequest` /
  :class:`~repro.core.request.QueryResponse` pair, including the
  single exception→status mapping
  (:func:`repro.errors.http_status_for`);
* :mod:`repro.service.server` — the stdlib-``asyncio`` HTTP server
  (``POST /query``, ``POST /batch``, ``GET /metrics``,
  ``GET /health``, ``GET /explain/<id>``) with request timeouts and
  graceful drain on shutdown.

Start one from the CLI (``ifls serve CPH --port 8337``) or
programmatically via :meth:`repro.api.Engine.serve`.
"""

from .batcher import Coalescer
from .pool import PoolStats, SessionPool
from .server import IFLSService, ServiceConfig

__all__ = [
    "Coalescer",
    "IFLSService",
    "PoolStats",
    "ServiceConfig",
    "SessionPool",
]
