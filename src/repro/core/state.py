"""The transform state: handle/payload mapping and invalidation tracking.

The interpreter maintains the association table between transform-script
handles (SSA values) and payload operations (paper §3), including:

* **handle invalidation** (§3.1): consuming transforms invalidate their
  operand handles *and every aliasing handle* — a handle aliases another
  when their payload operations overlap or nest — but not their own
  results, which they map after the invalidation;
* **rewrite-event subscription** (§3.1): the state is a
  :class:`~repro.rewrite.pattern.RewriteListener`, so pattern drivers
  notify it when payload ops are replaced or erased and handles are
  updated instead of dangling.

A reverse index (payload op -> handles mapped to it) keeps both
invalidation and the rewrite-event listeners near-O(affected): a consume
walks the ancestor chains of the mapped ops instead of cross-checking
every handle against every payload op, and replace/erase events touch
only the handles that actually reference the rewritten op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..ir.core import Operation, Value
from ..rewrite.pattern import RewriteListener

#: Parameters are lists of plain Python constants (ints mostly).
ParamValue = List[object]


class HandleInvalidatedError(Exception):
    """Access through an invalidated handle (reported as definite error)."""


@dataclass
class StateSnapshot:
    """A frozen copy of a :class:`TransformState`'s mapping tables.

    Produced by :meth:`TransformState.checkpoint` and reinstated by
    :meth:`TransformState.restore`; :class:`repro.core.transaction.
    PayloadTransaction` pairs one with an undo log of the payload IR so
    ``transform.alternatives`` can roll back *both* sides of the
    handle/payload association (paper §3.4, Fig. 8). The undo log keeps
    every op's identity, so the snapshot's op lists need no remapping.
    """

    ops: Dict[int, List[Operation]] = field(default_factory=dict)
    params: Dict[int, "ParamValue"] = field(default_factory=dict)
    invalidated: Dict[int, str] = field(default_factory=dict)


class TransformState(RewriteListener):
    """Maps transform handles to payload operations."""

    def __init__(self, payload_root: Operation):
        self.payload_root = payload_root
        self._ops: Dict[int, List[Operation]] = {}
        self._params: Dict[int, ParamValue] = {}
        self._invalidated: Dict[int, str] = {}
        #: Reverse index: payload-op id -> ids of handles mapped to it.
        #: Entries exist only while the op appears in some ``_ops`` list
        #: (which holds a strong reference), so ids cannot be recycled
        #: while indexed.
        self._op_handles: Dict[int, Set[int]] = {}
        #: Strong op reference per indexed id (for ancestor walks).
        self._indexed_ops: Dict[int, Operation] = {}

    # -- reverse index maintenance ------------------------------------------

    def _index_add(self, handle_id: int, ops: Iterable[Operation]) -> None:
        for op in ops:
            bucket = self._op_handles.get(id(op))
            if bucket is None:
                bucket = self._op_handles[id(op)] = set()
                self._indexed_ops[id(op)] = op
            bucket.add(handle_id)

    def _index_discard(self, handle_id: int,
                       ops: Iterable[Operation]) -> None:
        for op in ops:
            bucket = self._op_handles.get(id(op))
            if bucket is None:
                continue
            bucket.discard(handle_id)
            if not bucket:
                del self._op_handles[id(op)]
                del self._indexed_ops[id(op)]

    # -- mapping -----------------------------------------------------------

    def set_payload(self, handle: Value, ops: Sequence[Operation]) -> None:
        old = self._ops.get(id(handle))
        if old:
            self._index_discard(id(handle), old)
        self._ops[id(handle)] = list(ops)
        self._index_add(id(handle), ops)
        self._invalidated.pop(id(handle), None)

    def get_payload(self, handle: Value) -> List[Operation]:
        """Payload ops of ``handle``; raises on invalidated handles."""
        reason = self._invalidated.get(id(handle))
        if reason is not None:
            raise HandleInvalidatedError(
                f"use of a handle invalidated by {reason}"
            )
        if id(handle) not in self._ops:
            raise HandleInvalidatedError("use of an unmapped handle")
        return list(self._ops[id(handle)])

    def set_param(self, handle: Value, values: Iterable[object]) -> None:
        self._params[id(handle)] = list(values)

    def get_param(self, handle: Value) -> ParamValue:
        if id(handle) not in self._params:
            raise HandleInvalidatedError("use of an unmapped parameter")
        return list(self._params[id(handle)])

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, handle: Value, reason: str,
                   keep: Sequence[Value] = ()) -> int:
        """Invalidate ``handle`` and every aliasing handle but ``keep``.

        Aliasing is discovered through the reverse index: a handle
        aliases the consumed one when any of its payload ops *is* a
        consumed op or is *nested in* one (§3.1), so it suffices to
        walk the ancestor chain of every currently-mapped payload op —
        O(mapped ops x depth) instead of O(handles x payload). Handles
        to enclosing operations stay valid — the ancestors survive the
        rewrite. ``keep`` exempts the consuming op's own results: they
        are mapped after the invalidation (upstream's order), so they
        survive it.

        Returns the number of handles newly invalidated (the operand
        handle itself plus every alias).
        """
        count = int(id(handle) not in self._invalidated)
        self._invalidated[id(handle)] = reason
        target_ids = {id(op) for op in self._ops.get(id(handle), ())}
        if not target_ids:
            return count
        kept = {id(value) for value in keep}
        alias_reason = (
            f"{reason} (aliasing handle: payload same as or "
            "nested in the consumed payload)"
        )
        for op_id, mapped_op in self._indexed_ops.items():
            # Is this mapped op a consumed op, or nested inside one?
            node: Optional[Operation] = mapped_op
            while node is not None and id(node) not in target_ids:
                node = node.parent_op
            if node is None:
                continue
            for other_id in self._op_handles[op_id] - kept:
                if other_id not in self._invalidated:
                    self._invalidated[other_id] = alias_reason
                    count += 1
        return count

    # -- checkpoint / restore (transactional execution) ----------------------

    def checkpoint(self) -> StateSnapshot:
        """Copy every mapping table into a :class:`StateSnapshot`."""
        return StateSnapshot(
            ops={hid: list(ops) for hid, ops in self._ops.items()},
            params={hid: list(vs) for hid, vs in self._params.items()},
            invalidated=dict(self._invalidated),
        )

    def restore(self, snapshot: StateSnapshot) -> None:
        """Reinstate ``snapshot``; the reverse index is rebuilt from
        scratch so it stays consistent with the restored lists."""
        self._ops = {hid: list(ops) for hid, ops in snapshot.ops.items()}
        self._params = {hid: list(vs) for hid, vs in snapshot.params.items()}
        self._invalidated = dict(snapshot.invalidated)
        self._op_handles = {}
        self._indexed_ops = {}
        for hid, ops in self._ops.items():
            self._index_add(hid, ops)

    # -- rewrite-driver event subscription (paper §3.1) -------------------------

    def notify_op_replaced(self, op: Operation,
                           new_values: Sequence[Value]) -> None:
        """Update handles to point at the replacement operation.

        When no replacement op defines the new values (e.g. the results
        were replaced with block arguments), the op is dropped from the
        mapping. Every occurrence is rewritten — the list is rebuilt
        rather than edited in place, so a drop cannot shift later
        occurrences onto the wrong element.
        """
        replacement: Optional[Operation] = None
        for value in new_values:
            defining = value.defining_op()
            if defining is not None:
                replacement = defining
                break
        self._repoint(op, replacement)

    def notify_op_replaced_with_op(self, op: Operation,
                                   new_op: Operation) -> None:
        """Repoint handles at the replacement op (covers 0-result ops)."""
        self._repoint(op, new_op)

    def notify_op_erased(self, op: Operation) -> None:
        """Drop erased ops from every mapping (empty set, not dangling)."""
        self._repoint(op, None)

    def _repoint(self, op: Operation,
                 replacement: Optional[Operation]) -> None:
        handle_ids = self._op_handles.pop(id(op), None)
        if not handle_ids:
            return
        del self._indexed_ops[id(op)]
        for handle_id in handle_ids:
            ops = self._ops[handle_id]
            if replacement is not None:
                self._ops[handle_id] = [
                    replacement if mapped is op else mapped
                    for mapped in ops
                ]
            else:
                self._ops[handle_id] = [
                    mapped for mapped in ops if mapped is not op
                ]
        if replacement is not None:
            for handle_id in handle_ids:
                self._index_add(handle_id, [replacement])
