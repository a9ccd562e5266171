"""Transactional payload execution: snapshot, commit, rollback.

The paper's error-recovery story (§3.4, Fig. 8) requires
``transform.alternatives`` to *restore the payload IR* when an
alternative fails with a silenceable error before trying the next one.
:class:`PayloadTransaction` implements that contract for both sides of
the handle/payload association:

* the whole payload, from its root, is checkpointed with
  ``Operation.clone`` — a detached deep copy that no later rewrite can
  touch. The root has no values defined outside it, so the clone holds
  no use of a live value, and every op a body may create, move or
  erase is inside it — a scoped ``alternatives`` too;
* the :class:`~repro.core.state.TransformState` mapping tables are
  checkpointed with :meth:`~repro.core.state.TransformState.checkpoint`;
* an op-correspondence map (original op -> clone op, built from one
  parallel pre-order walk) lets :meth:`rollback` remap every
  checkpointed handle onto the restored operations, so handles created
  *before* the transaction keep working after a rollback — and so do
  the payload ops an enclosing ``foreach`` or ``alternatives`` holds
  (:meth:`~repro.core.state.TransformState.holding`).

Rollback transplants the clone's region contents into the original root
operation, which therefore keeps its identity: handles to the root are
untouched, and a transaction nested in another restores into the same
root the outer one will. The restored payload prints byte-identically
to its pre-transaction form.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.core import Operation
from .state import StateSnapshot, TransformState


class TransactionError(RuntimeError):
    """Misuse of a :class:`PayloadTransaction` (double commit/rollback)."""


class PayloadTransaction:
    """A checkpoint of the state's payload root plus the transform
    state."""

    def __init__(self, state: TransformState):
        self.state = state
        self.root = state.payload_root
        self._clone: Optional[Operation] = self.root.clone({})
        #: id(original op) -> clone op, for every op of the payload.
        #: The pinned walk list keeps the originals alive so no key can
        #: be recycled onto a different operation mid-transaction.
        self._pinned: List[Operation] = list(self.root.walk())
        self._op_map: Dict[int, Operation] = {
            id(orig): cloned
            for orig, cloned in zip(self._pinned, self._clone.walk())
        }
        # The root keeps its identity across rollback (only its region
        # contents are transplanted), so it maps to itself.
        self._op_map[id(self.root)] = self.root
        self._snapshot: Optional[StateSnapshot] = state.checkpoint()
        self._active = True

    def _finish(self) -> None:
        self._active = False
        self._clone = None
        self._snapshot = None
        self._pinned = []
        self._op_map = {}

    def commit(self) -> None:
        """Keep the current payload/state; discard the checkpoint."""
        if not self._active:
            raise TransactionError("transaction already finished")
        self._finish()

    def rollback(self) -> None:
        """Restore payload IR and handle state to the checkpoint."""
        if not self._active:
            raise TransactionError("transaction already finished")
        assert self._clone is not None and self._snapshot is not None
        # Swap the mutated blocks for the clone's. The root defines
        # every value either side uses, so no use outlives the swap.
        for dest_region, src_region in zip(self.root.regions,
                                           self._clone.regions):
            for block in list(dest_region.blocks):
                dest_region.remove_block(block)
            for block in list(src_region.blocks):
                src_region.remove_block(block)
                dest_region.add_block(block)
        self.root.attributes = dict(self._clone.attributes)
        # Reinstate the handle tables, remapped through the clone map.
        self.state.restore(self._snapshot, self._op_map)
        self._finish()

    # -- context-manager sugar: commit on success, rollback on error ---------

    def __enter__(self) -> "PayloadTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._active:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False
