"""IR construction helpers: insertion points and the builder."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .attributes import AttrLike
from .core import Block, Operation, Value
from .location import Location, UNKNOWN_LOC
from .types import Type


class InsertionPoint:
    """A position in a block where new operations are inserted.

    Anchored positions ("before op X") link the new op next to the
    anchor: creating an insertion point and inserting at it are both
    O(1) however large the block, so pattern drivers reposition
    builders freely. Only an explicit ``index`` reads ``block.ops``.
    """

    def __init__(self, block: Block, index: Optional[int] = None,
                 anchor: Optional[Operation] = None, after: bool = False):
        self.block = block
        #: Explicit index; None with no anchor means "at end of block".
        self.index = index
        #: Anchor op: insert relative to it, resolved lazily.
        self.anchor = anchor
        self.after_anchor = after

    @staticmethod
    def at_end(block: Block) -> "InsertionPoint":
        return InsertionPoint(block, None)

    @staticmethod
    def at_start(block: Block) -> "InsertionPoint":
        return InsertionPoint(block, 0)

    @staticmethod
    def before(op: Operation) -> "InsertionPoint":
        assert op.parent is not None
        return InsertionPoint(op.parent, anchor=op)

    @staticmethod
    def after(op: Operation) -> "InsertionPoint":
        assert op.parent is not None
        return InsertionPoint(op.parent, anchor=op, after=True)

    def insert(self, op: Operation) -> Operation:
        if self.anchor is not None:
            if self.anchor.parent is not self.block:
                # Anchor was moved/erased meanwhile: append at end.
                self.block.append(op)
                return op
            if self.after_anchor:
                self.block.insert_after(self.anchor, op)
                self.anchor = op  # keep subsequent inserts in order
            else:
                self.block.insert_before(self.anchor, op)
            return op
        if self.index is None:
            self.block.append(op)
        else:
            self.block.insert(self.index, op)
            self.index += 1
        return op


class Builder:
    """Creates operations at a movable insertion point.

    Dialect modules provide thin functions wrapping ``builder.create`` so
    client code reads like ``arith.addi(builder, lhs, rhs)``.
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None):
        self.ip = insertion_point

    # -- insertion point management ----------------------------------------

    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(InsertionPoint.at_end(block))

    @staticmethod
    def at_start(block: Block) -> "Builder":
        return Builder(InsertionPoint.at_start(block))

    @staticmethod
    def before(op: Operation) -> "Builder":
        return Builder(InsertionPoint.before(op))

    @staticmethod
    def after(op: Operation) -> "Builder":
        return Builder(InsertionPoint.after(op))

    def set_insertion_point_to_start(self, block: Block) -> None:
        self.ip = InsertionPoint.at_start(block)

    def set_insertion_point_before(self, op: Operation) -> None:
        self.ip = InsertionPoint.before(op)

    # -- creation ------------------------------------------------------------

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, AttrLike]] = None,
        regions: int = 0,
        successors: Sequence[Block] = (),
        location: Location = UNKNOWN_LOC,
    ) -> Operation:
        """Create an op and insert it at the current insertion point."""
        op = Operation.create(
            name, operands, result_types, attributes, regions, successors,
            location,
        )
        return self.insert(op)

    def insert(self, op: Operation) -> Operation:
        if self.ip is None:
            raise ValueError("builder has no insertion point")
        return self.ip.insert(op)

    def clone(self, op: Operation,
              value_map: Optional[Dict[Value, Value]] = None) -> Operation:
        """Clone ``op`` (deeply) at the insertion point."""
        return self.insert(op.clone(value_map))
