"""Algorithm-internal profiling hooks for the EXPLAIN profiler.

Spans (:mod:`repro.obs.trace`) answer *where the time went*; the
counters attached to them answer *how much distance work each phase
paid*.  What neither can show is the **inside** of the efficient
solver: how the Lemma 5.1 global bound ``Gd`` grew, when clients were
pruned versus retained, and which VIP-tree levels the traversal
actually touched.  :class:`ProfileCollector` records exactly that,
fed by two tiny hook points in :mod:`repro.core.efficient`, whose one
driver answers MinMax, MinDist and MaxSum alike:

* :meth:`ProfileCollector.bound_step` — one sample per solver round,
  taken by the driver: the current global bound and the
  retained/pruned client split.  Consecutive rounds that change
  nothing are collapsed, and the sample list is bounded
  (``bound_limit``); when full, the *last* slot keeps being
  overwritten so the final state always survives and
  ``bound_steps_dropped`` says how much of the middle was thinned.
* :meth:`ProfileCollector.node_visit` — one call per VIP-tree node
  expansion by the traversal, keyed by tree depth, also summing the
  expanded node's access-door count (the width of the matrix rows the
  expansion may touch).

Enablement mirrors :mod:`repro.obs.trace`: a process-global collector
plus :func:`install` / :func:`uninstall` / :func:`active` /
:func:`use`.  Solver code fetches the collector **once per query**
(``profile.active()``) and keeps it in a local; with profiling off
that local is ``None`` and each hook point is a single local-variable
test — the per-dequeue hot loop stays uninstrumented in the disabled
path, same budget as the rest of ``repro.obs``.

Collectors are consumed by :mod:`repro.obs.explain`, which folds the
samples into an :class:`~repro.obs.explain.ExplainReport`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "BoundStep",
    "ProfileCollector",
    "install",
    "uninstall",
    "active",
    "use",
]


@dataclass
class BoundStep:
    """One recorded solver round of the Lemma 5.1 bound evolution.

    ``round_index`` is 1-based over *all* rounds the solver ran (not
    just the recorded ones); ``bound`` is the global bound after the
    round (``Gd`` for the stream, the drain bound for refinement;
    ``inf`` marks the final queue-exhausted drain).  ``retained`` and
    ``pruned`` split the client set after the round.
    """

    round_index: int
    bound: float
    retained: int
    pruned: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (non-finite bounds become ``None``)."""
        return {
            "round": self.round_index,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "retained": self.retained,
            "pruned": self.pruned,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BoundStep":
        """Inverse of :meth:`to_dict`."""
        bound = payload.get("bound")
        return cls(
            round_index=int(payload["round"]),
            bound=float("inf") if bound is None else float(bound),
            retained=int(payload["retained"]),
            pruned=int(payload["pruned"]),
        )


class ProfileCollector:
    """Collects solver-internal events for one (or more) queries.

    The collector is deliberately dumb — append-only counters and a
    bounded sample list — so the enabled cost stays O(1) per solver
    round.  One collector normally profiles one query
    (:func:`~repro.obs.explain.explain_query` installs a fresh one
    per query); reusing it across queries simply concatenates
    rounds.
    """

    def __init__(self, bound_limit: int = 512) -> None:
        if bound_limit < 2:
            raise ValueError("bound_limit must be >= 2")
        self.bound_limit = bound_limit
        self.bound_steps: List[BoundStep] = []
        self.bound_rounds = 0
        self.bound_steps_dropped = 0
        self.node_visits: Dict[int, int] = {}
        self.access_doors: Dict[int, int] = {}

    # -- hook points (called from solver code) -------------------------
    def bound_step(
        self, bound: float, retained: int, pruned: int
    ) -> None:
        """Record one solver round (collapses no-change rounds)."""
        self.bound_rounds += 1
        steps = self.bound_steps
        if steps:
            last = steps[-1]
            if (
                last.bound == bound
                and last.retained == retained
                and last.pruned == pruned
            ):
                return
        step = BoundStep(self.bound_rounds, bound, retained, pruned)
        if len(steps) >= self.bound_limit:
            # Keep the first bound_limit-1 samples plus the latest, so
            # both ends of the evolution survive truncation.
            self.bound_steps_dropped += 1
            steps[-1] = step
        else:
            steps.append(step)

    def node_visit(self, depth: int, access_doors: int) -> None:
        """Record one VIP-tree node expansion at ``depth``."""
        self.node_visits[depth] = self.node_visits.get(depth, 0) + 1
        self.access_doors[depth] = (
            self.access_doors.get(depth, 0) + access_doors
        )

    # -- consumption ---------------------------------------------------
    @property
    def nodes_visited(self) -> int:
        """Total node expansions across all levels."""
        return sum(self.node_visits.values())

    def visits_by_depth(self) -> Dict[int, Dict[str, int]]:
        """``{depth: {"nodes": n, "access_doors": d}}``, sorted."""
        return {
            depth: {
                "nodes": self.node_visits[depth],
                "access_doors": self.access_doors.get(depth, 0),
            }
            for depth in sorted(self.node_visits)
        }


# ---------------------------------------------------------------------------
# Process-global enablement (same pattern as repro.obs.trace)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[ProfileCollector] = None


def install(
    collector: Optional[ProfileCollector],
) -> Optional[ProfileCollector]:
    """Make ``collector`` process-global; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = collector
    return previous


def uninstall() -> Optional[ProfileCollector]:
    """Disable profiling; returns the collector that was active."""
    return install(None)


def active() -> Optional[ProfileCollector]:
    """The process-global collector, or ``None`` when profiling is off.

    Solver code calls this once per query and keeps the result in a
    local variable, so the per-round hook cost with profiling disabled
    is a single local ``is None`` test.
    """
    return _ACTIVE


@contextmanager
def use(
    collector: Optional[ProfileCollector],
) -> Iterator[Optional[ProfileCollector]]:
    """Scope-install a collector, restoring the previous one on exit."""
    previous = install(collector)
    try:
        yield collector
    finally:
        install(previous)
