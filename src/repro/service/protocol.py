"""HTTP/JSON wire layer of the query service.

Kept separate from the asyncio plumbing so the codec is unit-testable
without sockets: bytes in, :class:`~repro.core.request.QueryRequest`
out, and the *single* place errors become HTTP status codes
(:func:`repro.errors.http_status_for` — the classes themselves carry
their status).

The server speaks minimal HTTP/1.1: one request per connection
(``Connection: close``), bodies sized by ``Content-Length``.  That is
deliberate — the service's unit of work is a query batch, not a
keep-alive byte stream, and the stdlib-only constraint rules out a
framework.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.request import QueryRequest, _facility_sets, _flag
from ..core.stream import ClientEvent
from ..errors import ProtocolError, http_status_for
from ..indoor.entities import FacilitySets

__all__ = [
    "HttpRequest",
    "PlainTextBody",
    "error_body",
    "json_response",
    "text_response",
    "render_body",
    "parse_query_payload",
    "parse_batch_payload",
    "parse_stream_open_payload",
    "parse_events_payload",
    "render_response",
    "STATUS_REASONS",
]

MAX_BODY_BYTES = 32 * 1024 * 1024

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (:class:`ProtocolError` on junk)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack.
            raise ProtocolError(f"request body is not JSON: {exc}")


def parse_head(head: bytes) -> HttpRequest:
    """Parse the request line + headers (everything before the body)."""
    try:
        text = head.decode("latin-1")
        lines = text.split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
    except (ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed request line: {exc}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(
        method=method.upper(), path=path, headers=headers
    )


def content_length(request: HttpRequest) -> int:
    """The declared body size; :class:`ProtocolError` when invalid."""
    raw = request.headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {raw!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]"
        )
    return length


def parse_query_payload(payload: Any) -> QueryRequest:
    """Decode one ``POST /query`` body into a request."""
    return QueryRequest.from_payload(payload)


def parse_batch_payload(payload: Any) -> List[QueryRequest]:
    """Decode one ``POST /batch`` body into an ordered request list.

    Accepts either a bare JSON array or ``{"queries": [...]}``.
    """
    if isinstance(payload, dict) and "queries" in payload:
        payload = payload["queries"]
    if not isinstance(payload, list):
        raise ProtocolError(
            "batch payload must be a JSON array (or an object with "
            f"a 'queries' array), got {type(payload).__name__}"
        )
    if not payload:
        raise ProtocolError("batch payload is empty")
    return [QueryRequest.from_payload(item) for item in payload]


def parse_stream_open_payload(
    payload: Any,
) -> Tuple[FacilitySets, bool, str]:
    """Decode one ``POST /stream`` body.

    Returns ``(facilities, incremental, label)``; the facility sets and
    the ``incremental`` flag use the query wire spelling (integer id
    arrays under ``existing`` / ``candidates``, JSON ``true`` /
    ``false``).
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"stream payload must be an object, got "
            f"{type(payload).__name__}"
        )
    return (
        _facility_sets(payload),
        _flag(payload, "incremental", True),
        str(payload.get("label", "")),
    )


def parse_events_payload(payload: Any) -> List[ClientEvent]:
    """Decode one ``POST /stream/<id>/events`` body.

    Accepts either a bare JSON array or ``{"events": [...]}``; an empty
    array is valid (an empty batch applies no events).
    """
    if isinstance(payload, dict) and "events" in payload:
        payload = payload["events"]
    if not isinstance(payload, list):
        raise ProtocolError(
            "events payload must be a JSON array (or an object with "
            f"an 'events' array), got {type(payload).__name__}"
        )
    return [ClientEvent.from_payload(item) for item in payload]


@dataclass
class PlainTextBody:
    """A non-JSON response body (e.g. Prometheus exposition text).

    Handlers return one of these instead of a JSON-compatible payload
    when the endpoint negotiated a text representation;
    :func:`render_body` dispatches on the type.
    """

    text: str
    content_type: str = "text/plain; charset=utf-8"


def json_response(
    status: int, payload: Any
) -> bytes:
    """Serialise one HTTP response with a JSON body."""
    body = json.dumps(payload).encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def text_response(status: int, payload: PlainTextBody) -> bytes:
    """Serialise one HTTP response with a plain-text body."""
    body = payload.text.encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {payload.content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def render_body(status: int, payload: Any) -> bytes:
    """Serialise a handler's return value, whatever its shape."""
    if isinstance(payload, PlainTextBody):
        return text_response(status, payload)
    return json_response(status, payload)


def error_body(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map any exception to ``(status, json_body)`` — the one place.

    Library errors carry their own ``http_status``; everything else is
    a 500.  The body names the exception class so clients can branch
    without string matching.
    """
    status = http_status_for(exc)
    return status, {
        "error": type(exc).__name__,
        "detail": str(exc),
        "status": status,
    }


def render_response(
    payload: Any, status: int = 200
) -> bytes:
    """Shorthand for the success path."""
    return json_response(status, payload)


def request_id_path(path: str, prefix: str) -> Optional[str]:
    """Extract the trailing id of ``/explain/<id>``-style paths."""
    if not path.startswith(prefix):
        return None
    rest = path[len(prefix):]
    if not rest or "/" in rest:
        return None
    return rest
