"""Long-lived IFLS query service.

Loads a venue + VIP-tree once and answers IFLS queries over HTTP/JSON
from one resident warm session:

* :mod:`repro.service.batcher` — a request-coalescing queue whose one
  flusher takes every pending request as soon as the previous flush
  ends and answers it serially on the resident
  :class:`~repro.core.session.QuerySession`;
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
from .server import IFLSService, ServiceConfig

__all__ = [
    "Coalescer",
    "IFLSService",
    "ServiceConfig",
]
