"""Transactional payload execution: snapshot, commit, rollback.

The paper's error-recovery story (§3.4, Fig. 8) requires
``transform.alternatives`` to *restore the payload IR* when an
alternative fails with a silenceable error before trying the next one.
:class:`PayloadTransaction` implements that contract for both sides of
the handle/payload association:

* the payload is journaled, not copied: a transaction is an
  :class:`~repro.ir.core.UndoLog`, the one record of IR writes, which
  also runs each dialect-conversion attempt (the design of MLIR's
  dialect conversion);
* the :class:`~repro.core.state.TransformState` mapping tables are
  checkpointed with :meth:`~repro.core.state.TransformState.checkpoint`.

Rollback replays the log backwards, so every op keeps its identity:
handles created before the transaction, and payload ops Python code
holds across it (``foreach``'s pending elements, an ``alternatives``
scope), need no remapping, and the restored payload prints
byte-identically to its pre-transaction form. Logs on one thread nest
and finish innermost first: a conversion attempt that commits inside a
transaction extends it, so the transaction's rollback undoes the attempt.
"""

from __future__ import annotations

from ..ir.core import TransactionError, UndoLog
from .state import TransformState

__all__ = ["PayloadTransaction", "TransactionError"]


class PayloadTransaction(UndoLog):
    """An undo log of this thread's IR writes plus a checkpoint of the
    transform state."""

    def __init__(self, state: TransformState):
        self.state = state
        self._snapshot = state.checkpoint()
        super().__init__()

    def rollback(self) -> None:
        """Restore payload IR and handle state to the checkpoint."""
        super().rollback()
        self.state.restore(self._snapshot)
