"""Transactional payload execution: snapshot, commit, rollback.

The paper's error-recovery story (§3.4, Fig. 8) requires
``transform.alternatives`` to *restore the payload IR* when an
alternative fails with a silenceable error before trying the next one.
:class:`PayloadTransaction` implements that contract for both sides of
the handle/payload association:

* the payload is journaled, not copied: every IR write goes through a
  mutator of :mod:`repro.ir.core`, and while a transaction is open on
  the thread each one appends its inverse to the transaction's undo log
  (``ir.core.JOURNAL``, the design of MLIR's dialect conversion);
* the :class:`~repro.core.state.TransformState` mapping tables are
  checkpointed with :meth:`~repro.core.state.TransformState.checkpoint`.

Rollback replays the log backwards, so every op keeps its identity:
handles created before the transaction, and payload ops Python code
holds across it (``foreach``'s pending elements, an ``alternatives``
scope), need no remapping, and the restored payload prints
byte-identically to its pre-transaction form. Erased ops stay intact,
only unlinked, so an undo relinks them. Transactions on one thread
nest and finish innermost first: a commit hands the log to the
enclosing transaction, or drops it.
"""

from __future__ import annotations

from typing import Optional

from ..ir.core import JOURNAL
from .state import TransformState


class TransactionError(RuntimeError):
    """Misuse of a :class:`PayloadTransaction` (double commit/rollback,
    or one finished while a transaction it encloses is open)."""


class PayloadTransaction:
    """An undo log of this thread's IR writes plus a checkpoint of the
    transform state."""

    def __init__(self, state: TransformState):
        self.state = state
        self._snapshot = state.checkpoint()
        self._outer = JOURNAL.log
        self._log: Optional[list] = []
        JOURNAL.log = self._log

    def _close(self) -> list:
        log = self._log
        if log is None or JOURNAL.log is not log:
            raise TransactionError("transaction already finished, or a "
                                   "nested one is still open")
        self._log = None
        return log

    def commit(self) -> None:
        """Keep the current payload/state; the enclosing transaction, if
        any, can still undo the writes."""
        log = self._close()
        if self._outer is not None:
            self._outer.extend(log)
        JOURNAL.log = self._outer

    def rollback(self) -> None:
        """Restore payload IR and handle state to the checkpoint."""
        log = self._close()
        # An inverse is a write itself: replay with no log open.
        JOURNAL.log = None
        try:
            for inverse, args in reversed(log):
                inverse(*args)
        finally:
            JOURNAL.log = self._outer
        self.state.restore(self._snapshot)

    # -- context-manager sugar: commit on success, rollback on error ---------

    def __enter__(self) -> "PayloadTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._log is not None:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False
