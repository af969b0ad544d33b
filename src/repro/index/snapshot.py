"""Read-only images of a prepared engine: venue + built VIP-tree.

:class:`IndexSnapshot` is the parallel executor's ``spawn`` payload
(:mod:`repro.core.parallel`): the parent pickles it once with
:meth:`~IndexSnapshot.to_bytes`; each worker decodes it with
:meth:`~IndexSnapshot.from_bytes` and builds its engine with
:meth:`~IndexSnapshot.restore`, without re-running tree construction.
(Under ``fork`` the prepared engine travels copy-on-write instead.)

The snapshot itself is frozen and treats its venue and tree as
immutable — exactly the contract warm caches already rely on (distances
depend only on geometry).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ParallelExecutionError
from ..indoor.venue import IndoorVenue
from .viptree import VIPTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.queries import IFLSEngine

__all__ = ["IndexSnapshot"]


@dataclass(frozen=True)
class IndexSnapshot:
    """A picklable, shareable image of a prepared engine.

    The snapshot carries the built tree (matrices included), so
    restoring is a cheap unpickle instead of an index construction.
    One snapshot may back any number of worker processes; nothing
    reachable from it is mutated after construction.
    """

    venue: IndoorVenue
    tree: VIPTree
    use_kernels: Optional[bool] = None

    @classmethod
    def from_engine(cls, engine: "IFLSEngine") -> "IndexSnapshot":
        """Capture the engine's shared, immutable structures."""
        return cls(
            venue=engine.venue,
            tree=engine.tree,
            use_kernels=engine.use_kernels,
        )

    def restore(self) -> "IFLSEngine":
        """Rebuild a fresh engine around the snapshotted tree.

        The parent's resolved ``use_kernels`` choice travels with the
        snapshot so spawn workers answer on the same code path (the
        tree's kernel pack itself is re-derived in the worker, not
        shipped).  Always returns a *new* engine.
        """
        from ..core.queries import IFLSEngine

        return IFLSEngine(
            self.venue, tree=self.tree, use_kernels=self.use_kernels
        )

    def to_bytes(self) -> bytes:
        """Pickle once with the highest protocol (sent per worker)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "IndexSnapshot":
        """Inverse of :meth:`to_bytes` (runs in the worker)."""
        snapshot = pickle.loads(payload)
        if not isinstance(snapshot, cls):
            raise ParallelExecutionError(
                f"snapshot payload decoded to {type(snapshot).__name__}"
            )
        return snapshot
