"""The scf dialect: structured control flow (loops and conditionals)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..ir.builder import Builder
from ..ir.core import (
    Block,
    BlockArgument,
    IsTerminator,
    Operation,
    SingleBlock,
    Value,
    register_op,
)
from ..ir.types import IndexType, Type


@register_op
class YieldOp(Operation):
    NAME = "scf.yield"
    TRAITS = frozenset({IsTerminator})


@register_op
class ForOp(Operation):
    """A counted loop ``scf.for %iv = %lb to %ub step %step iter_args(...)``.

    Operands are ``lb, ub, step`` followed by the initial values of the
    iteration arguments; the body block receives the induction variable
    plus one argument per iter_arg, and results mirror the iter_args.
    """

    NAME = "scf.for"
    TRAITS = frozenset({SingleBlock})

    @property
    def lower_bound(self) -> Value:
        return self.operand(0)

    @property
    def upper_bound(self) -> Value:
        return self.operand(1)

    @property
    def step(self) -> Value:
        return self.operand(2)

    @property
    def init_args(self) -> List[Value]:
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def induction_var(self) -> BlockArgument:
        return self.body.args[0]

    @property
    def iter_args(self) -> List[BlockArgument]:
        return self.body.args[1:]

    def constant_bounds(self) -> Optional[Tuple[int, int, int]]:
        """(lb, ub, step) when all bounds are arith.constant, else None."""
        values = []
        for bound in (self.lower_bound, self.upper_bound, self.step):
            defining = bound.defining_op()
            if defining is None or defining.name != "arith.constant":
                return None
            values.append(defining.value)  # type: ignore[attr-defined]
        return tuple(values)  # type: ignore[return-value]

    def trip_count(self) -> Optional[int]:
        bounds = self.constant_bounds()
        if bounds is None:
            return None
        lb, ub, step = bounds
        if step <= 0:
            return None
        return max(0, -(-(ub - lb) // step))

    def verify_op(self) -> None:
        if self.num_operands < 3:
            raise ValueError("scf.for expects lb, ub, step operands")
        n_iter = self.num_operands - 3
        if len(self.results) != n_iter:
            raise ValueError("scf.for: results must mirror iter_args")
        if not self.regions[0].blocks:
            raise ValueError("scf.for requires a body block")
        if len(self.body.args) != 1 + n_iter:
            raise ValueError(
                "scf.for body must take the induction variable plus one "
                "argument per iter_arg"
            )


@register_op
class IfOp(Operation):
    """A conditional with a then region and an optional else region."""

    NAME = "scf.if"
    TRAITS = frozenset({SingleBlock})

    @property
    def then_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def else_block(self) -> Optional[Block]:
        if len(self.regions) < 2 or not self.regions[1].blocks:
            return None
        return self.regions[1].entry_block

    def verify_op(self) -> None:
        if self.num_operands != 1:
            raise ValueError("scf.if expects a single i1 condition")


@register_op
class ForallOp(Operation):
    """A parallel loop over a rectangular index domain (normalized form).

    Operands are the upper bounds (one per dimension, lower bound 0 and
    step 1 implied), matching the normalized ``scf.forall`` used by the
    paper's case-study-2 payload.
    """

    NAME = "scf.forall"
    TRAITS = frozenset({SingleBlock})

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def induction_vars(self) -> List[BlockArgument]:
        return list(self.body.args)

    @property
    def rank(self) -> int:
        return self.num_operands

    def verify_op(self) -> None:
        if not self.regions[0].blocks:
            raise ValueError("scf.forall requires a body block")
        if len(self.body.args) != self.num_operands:
            raise ValueError(
                "scf.forall: one induction variable per upper bound"
            )


@register_op
class WhileOp(Operation):
    """A general while loop with a 'before' (condition) and 'after' region."""

    NAME = "scf.while"


@register_op
class ConditionOp(Operation):
    NAME = "scf.condition"
    TRAITS = frozenset({IsTerminator})


@register_op
class ExecuteRegionOp(Operation):
    """Wraps a region so structured ops can host unstructured control flow."""

    NAME = "scf.execute_region"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def for_(
    builder: Builder,
    lower_bound: Value,
    upper_bound: Value,
    step: Value,
    iter_args: Sequence[Value] = (),
) -> ForOp:
    """Create an ``scf.for`` with an empty body block (iv + iter args)."""
    op = builder.create(
        "scf.for",
        operands=[lower_bound, upper_bound, step, *iter_args],
        result_types=[v.type for v in iter_args],
        regions=1,
    )
    op.regions[0].add_block(
        Block([IndexType(), *(v.type for v in iter_args)])
    )
    return op  # type: ignore[return-value]


def yield_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create("scf.yield", operands=list(values))


def if_(
    builder: Builder,
    condition: Value,
    result_types: Sequence[Type] = (),
    with_else: bool = False,
) -> IfOp:
    op = builder.create(
        "scf.if",
        operands=[condition],
        result_types=list(result_types),
        regions=2,
    )
    op.regions[0].add_block()
    if with_else:
        op.regions[1].add_block()
    return op  # type: ignore[return-value]


def forall(builder: Builder, upper_bounds: Sequence[Value]) -> ForallOp:
    op = builder.create(
        "scf.forall", operands=list(upper_bounds), regions=1
    )
    op.regions[0].add_block(
        Block([IndexType() for _ in upper_bounds])
    )
    return op  # type: ignore[return-value]
