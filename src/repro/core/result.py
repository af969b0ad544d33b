"""IFLS query results.

All algorithms (brute force, baseline, efficient, and the MinDist /
MaxSum extensions) return an :class:`IFLSResult`.  Because ties are
possible, algorithms are compared on ``objective`` in tests, not on the
identity of ``answer``; each implementation breaks ties
deterministically (smallest objective, then smallest partition id).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..indoor.entities import PartitionId
from .stats import QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.explain import ExplainReport


class ResultStatus(enum.Enum):
    """Outcome classes of an IFLS query."""

    OPTIMAL = "optimal"
    #: No candidate can improve any remaining client's distance to its
    #: nearest existing facility — the paper's "no answer exists" case.
    NO_IMPROVEMENT = "no-improvement"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class IFLSResult:
    """Answer of an IFLS query.

    Attributes
    ----------
    answer:
        The optimal candidate partition, or ``None`` when no candidate
        improves the objective (status ``NO_IMPROVEMENT``).
    objective:
        The achieved objective value.  For MinMax this is
        ``max_c iDist(c, NN(c, Fe ∪ {answer}))`` — also filled in the
        NO_IMPROVEMENT case, where it equals the objective without any
        new facility.
    status:
        Outcome class.
    stats:
        Execution counters for the run that produced this result.
    explain:
        The query's :class:`~repro.obs.explain.ExplainReport` when a
        session answered a request with ``explain=True``; ``None``
        otherwise.
    """

    answer: Optional[PartitionId]
    objective: float
    status: ResultStatus = ResultStatus.OPTIMAL
    stats: QueryStats = field(default_factory=QueryStats)
    explain: Optional["ExplainReport"] = None

    @property
    def improved(self) -> bool:
        """True when a candidate strictly improves the objective."""
        return self.status is ResultStatus.OPTIMAL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IFLSResult(answer={self.answer}, "
            f"objective={self.objective:.4f}, status={self.status})"
        )
