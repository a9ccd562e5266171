"""The cf dialect: classical unstructured control flow (branches)."""

from __future__ import annotations

from typing import List, Sequence

from ..ir.attributes import IntegerAttr
from ..ir.builder import Builder
from ..ir.core import Block, IsTerminator, Operation, Value, register_op


@register_op
class BranchOp(Operation):
    """Unconditional branch; operands are the successor block arguments."""

    NAME = "cf.br"
    TRAITS = frozenset({IsTerminator})

    @property
    def dest(self) -> Block:
        return self.successors[0]

    def verify_op(self) -> None:
        if len(self.successors) != 1:
            raise ValueError("cf.br expects one successor")
        if self.num_operands != len(self.dest.args):
            raise ValueError(
                "cf.br operand count does not match successor arguments"
            )


@register_op
class CondBranchOp(Operation):
    """Conditional branch.

    Operands are ``cond`` then true-successor args then false-successor
    args; the split point is recorded in the ``true_arg_count`` attribute
    (mirroring MLIR's variadic operand segmentation).
    """

    NAME = "cf.cond_br"
    TRAITS = frozenset({IsTerminator})

    @property
    def true_dest(self) -> Block:
        return self.successors[0]

    @property
    def false_dest(self) -> Block:
        return self.successors[1]

    @property
    def _true_count(self) -> int:
        attr = self.attr("true_arg_count")
        return attr.value if isinstance(attr, IntegerAttr) else 0

    @property
    def true_args(self) -> List[Value]:
        return self.operands[1 : 1 + self._true_count]

    @property
    def false_args(self) -> List[Value]:
        return self.operands[1 + self._true_count :]

    def verify_op(self) -> None:
        if len(self.successors) != 2:
            raise ValueError("cf.cond_br expects two successors")
        if len(self.true_args) != len(self.true_dest.args):
            raise ValueError("cf.cond_br true-successor argument mismatch")
        if len(self.false_args) != len(self.false_dest.args):
            raise ValueError("cf.cond_br false-successor argument mismatch")


@register_op
class SwitchOp(Operation):
    NAME = "cf.switch"
    TRAITS = frozenset({IsTerminator})


def br(builder: Builder, dest: Block,
       args: Sequence[Value] = ()) -> Operation:
    return builder.create(
        "cf.br", operands=list(args), successors=[dest]
    )


def cond_br(
    builder: Builder,
    condition: Value,
    true_dest: Block,
    false_dest: Block,
    true_args: Sequence[Value] = (),
    false_args: Sequence[Value] = (),
) -> Operation:
    return builder.create(
        "cf.cond_br",
        operands=[condition, *true_args, *false_args],
        successors=[true_dest, false_dest],
        attributes={"true_arg_count": len(true_args)},
    )
