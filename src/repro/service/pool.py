"""Per-venue pools of warm query sessions over one shared snapshot.

A long-lived service cannot afford one global session (a single warm
cache would serialise every request behind one lock) or a fresh session
per request (cold caches forfeit the whole point of staying resident).
:class:`SessionPool` keeps up to ``size`` warm
:class:`~repro.core.session.QuerySession` objects over a single
read-only :class:`~repro.index.snapshot.IndexSnapshot`: the venue,
VIP-tree, and kernel pack are shared; every session owns its *own*
distance engine, memo tables, and — critically — its own
``DistanceStats`` ledger.

Ledger discipline
-----------------
Sharing one mutable ``DistanceStats`` across concurrently checked-out
sessions would race increments and break the ledger identities
(``hits + computations == calls``) the whole observability stack is
audited against.  The pool therefore merges per-session *deltas* into
its own ledger at checkin time: each session carries a
``_pool_mark`` — the snapshot of its counters at its previous checkin
— and only the work since then is folded in.  :meth:`ledger` returns
the merged totals (including retired sessions), and the merge preserves
every invariant because it is plain summation of per-session deltas
(see :func:`repro.core.stats.merge_snapshots`).

Memory pressure
---------------
``cache_bytes_budget`` bounds the pool's combined memo footprint: on
every checkin, idle sessions' distance caches are invalidated
oldest-idle-first until the sum of idle cache bytes fits the budget
(the just-returned session is evicted last, keeping the warmest cache
alive).  ``max_cache_entries`` additionally caps each session's memo
table via the engine's own eviction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.session import QuerySession
from ..core.stats import distance_invariant_violations
from ..errors import ServiceError
from ..index.snapshot import IndexSnapshot
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["PoolStats", "SessionPool"]


@dataclass
class PoolStats:
    """A point-in-time view of one pool's state."""

    size: int
    created: int
    idle: int
    checked_out: int
    retired: int
    evictions: int
    cache_bytes: int
    queries_answered: int


class SessionPool:
    """A bounded pool of warm sessions over one shared index snapshot.

    Parameters
    ----------
    snapshot:
        The read-only venue + tree image every session shares.
    size:
        Maximum concurrently live sessions.  :meth:`checkout` blocks
        (up to ``checkout_timeout``) when all are out.
    max_cache_entries:
        Per-session memo budget, forwarded to each session's distance
        engine.
    cache_bytes_budget:
        Combined idle-cache byte budget; exceeding it invalidates idle
        sessions' memos oldest-idle-first.  ``None`` disables pressure
        eviction.
    checkout_timeout:
        Seconds :meth:`checkout` waits for a session before raising
        :class:`~repro.errors.ServiceError`; ``None`` waits forever.
    """

    def __init__(
        self,
        snapshot: IndexSnapshot,
        size: int = 4,
        max_cache_entries: Optional[int] = None,
        cache_bytes_budget: Optional[int] = None,
        checkout_timeout: Optional[float] = 30.0,
    ) -> None:
        if size < 1:
            raise ServiceError(f"pool size must be >= 1, got {size}")
        self.snapshot = snapshot
        self.size = size
        self.max_cache_entries = max_cache_entries
        self.cache_bytes_budget = cache_bytes_budget
        self.checkout_timeout = checkout_timeout
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._idle: List[QuerySession] = []
        self._out: List[QuerySession] = []
        self._created = 0
        self._retired_sessions = 0
        self._evictions = 0
        self._closed = False
        # Merged distance totals of all pool work (retired sessions
        # included); per-session deltas are folded in at checkin.
        self._totals: Dict[str, int] = {}
        self._queries_answered = 0

    # ------------------------------------------------------------------
    # Checkout / checkin
    # ------------------------------------------------------------------
    def checkout(
        self,
        timeout: Optional[float] = None,
        request_ids: Sequence[str] = (),
    ) -> QuerySession:
        """Borrow a warm session (creating one while under ``size``).

        Each borrowed session is exclusively owned until
        :meth:`checkin`; two concurrent borrowers can never observe the
        same session — or the same mutable ``DistanceStats`` — at once.
        ``request_ids`` are the correlation ids of the queries this
        checkout will answer; they tag the ``service.pool.checkout``
        span (which wraps any wait for a free session).
        """
        deadline = timeout if timeout is not None else (
            self.checkout_timeout
        )
        span_attrs = {}
        ids = _trace.dedup_request_ids(request_ids)
        if ids:
            span_attrs["request_ids"] = list(ids)
        with _trace.span("service.pool.checkout", **span_attrs):
            with self._available:
                while True:
                    if self._closed:
                        raise ServiceError(
                            "session pool is closed"
                        )
                    if self._idle:
                        session = self._idle.pop()
                        break
                    if self._created < self.size:
                        session = self._new_session()
                        break
                    if not self._available.wait(timeout=deadline):
                        raise ServiceError(
                            f"no session became available within "
                            f"{deadline}s (pool size {self.size})"
                        )
                self._out.append(session)
                _metrics.set_gauge(
                    "service.pool.sessions", self._created
                )
                return session

    def checkin(self, session: QuerySession) -> None:
        """Return a borrowed session, folding its new work into the
        pool ledger and applying the cache-byte budget."""
        with self._available:
            if session not in self._out:
                raise ServiceError(
                    "checkin of a session this pool did not lend out"
                )
            self._out.remove(session)
            self._merge_locked(session)
            if self._closed:
                self._retire_locked(session)
            else:
                self._idle.append(session)
                self._evict_under_pressure_locked()
            self._available.notify()

    def session(
        self,
        timeout: Optional[float] = None,
        request_ids: Sequence[str] = (),
    ):
        """Context-manager checkout::

            with pool.session() as session:
                session.query(...)

        ``request_ids`` are forwarded to :meth:`checkout` for span
        correlation.
        """
        return _Checkout(self, timeout, request_ids)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def _merge_locked(self, session: QuerySession) -> None:
        """Fold the session's counters since its last merge into the
        pool totals (delta merge — never double counts)."""
        current = session.distances.stats.snapshot()
        mark: Dict[str, int] = getattr(session, "_pool_mark", {})
        queries_mark: int = getattr(session, "_pool_queries_mark", 0)
        for key, value in current.items():
            delta = value - mark.get(key, 0)
            if delta:
                self._totals[key] = (
                    self._totals.get(key, 0) + delta
                )
        self._queries_answered += (
            session.queries_answered - queries_mark
        )
        session._pool_mark = current
        session._pool_queries_mark = session.queries_answered

    def ledger(self) -> Dict[str, int]:
        """Merged distance totals of everything the pool answered.

        Includes checked-in deltas and retired sessions; work done by a
        currently checked-out session appears after its checkin.  The
        result satisfies the same structural invariants as a single
        engine's ledger (asserted in tests and
        ``tools/check_counters.py``).
        """
        with self._lock:
            return dict(self._totals)

    def ledger_violations(self) -> List[str]:
        """Invariant violations of the merged ledger (empty = clean)."""
        return distance_invariant_violations(self.ledger())

    # ------------------------------------------------------------------
    # Lifecycle / pressure
    # ------------------------------------------------------------------
    def _new_session(self) -> QuerySession:
        session = self.snapshot.session(
            max_cache_entries=self.max_cache_entries,
            keep_records=False,
        )
        session._pool_mark = {}
        session._pool_queries_mark = 0
        self._created += 1
        return session

    def _retire_locked(self, session: QuerySession) -> None:
        session.invalidate()
        self._created -= 1
        self._retired_sessions += 1

    def _evict_under_pressure_locked(self) -> None:
        """Drop idle sessions' memos oldest-idle-first over budget.

        ``self._idle`` is a stack (checkout pops the most recently
        returned, warmest session), so index 0 is the coldest idle
        session — evict from there.
        """
        if self.cache_bytes_budget is None:
            return
        total = sum(
            s.distances.cache_bytes() for s in self._idle
        )
        for session in self._idle:
            if total <= self.cache_bytes_budget:
                break
            held = session.distances.cache_bytes()
            if not held:
                continue
            session.invalidate()
            total -= held
            self._evictions += 1
            _metrics.add("service.pool.evictions")

    def close(self) -> None:
        """Refuse new checkouts and retire idle sessions.

        Checked-out sessions retire at their checkin, so a draining
        server can close the pool first and let in-flight work finish.
        """
        with self._available:
            self._closed = True
            for session in self._idle:
                self._merge_locked(session)
                self._retire_locked(session)
            self._idle.clear()
            self._available.notify_all()

    def stats(self) -> PoolStats:
        """Point-in-time pool statistics."""
        with self._lock:
            return PoolStats(
                size=self.size,
                created=self._created,
                idle=len(self._idle),
                checked_out=len(self._out),
                retired=self._retired_sessions,
                evictions=self._evictions,
                cache_bytes=sum(
                    s.distances.cache_bytes() for s in self._idle
                ),
                queries_answered=self._queries_answered,
            )


class _Checkout:
    """Context manager pairing checkout with guaranteed checkin."""

    def __init__(
        self,
        pool: SessionPool,
        timeout: Optional[float],
        request_ids: Sequence[str] = (),
    ) -> None:
        self._pool = pool
        self._timeout = timeout
        self._request_ids = request_ids
        self._session: Optional[QuerySession] = None

    def __enter__(self) -> QuerySession:
        self._session = self._pool.checkout(
            timeout=self._timeout, request_ids=self._request_ids
        )
        return self._session

    def __exit__(self, *_exc) -> bool:
        if self._session is not None:
            self._pool.checkin(self._session)
        return False
