"""The builtin dialect: modules and unrealized conversion casts."""

from __future__ import annotations

from typing import Sequence

from ..ir.builder import Builder
from ..ir.core import (
    Block,
    IsolatedFromAbove,
    NoTerminator,
    Operation,
    Pure,
    SingleBlock,
    SymbolTableTrait,
    Value,
    register_op,
)
from ..ir.types import Type


@register_op
class ModuleOp(Operation):
    """Top-level container holding a symbol table of functions."""

    NAME = "builtin.module"
    TRAITS = frozenset(
        {SymbolTableTrait, NoTerminator, SingleBlock, IsolatedFromAbove}
    )

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block


@register_op
class UnrealizedConversionCastOp(Operation):
    """A temporary cast between types during progressive lowering.

    Introduced by the dialect-conversion driver when an operation's
    result type changes but some users have not been converted yet.
    ``reconcile-unrealized-casts`` removes matching cast pairs; leftover
    casts make legalization fail — the exact failure mode of the broken
    pipeline in case study 2.
    """

    NAME = "builtin.unrealized_conversion_cast"
    TRAITS = frozenset({Pure})


def module(location=None, attributes=None) -> ModuleOp:
    """Create an empty module with one body block."""
    op = Operation.create("builtin.module", attributes=attributes, regions=1)
    op.regions[0].add_block()
    return op  # type: ignore[return-value]


def unrealized_cast(builder: Builder, operands: Sequence[Value],
                    result_types: Sequence[Type]) -> Operation:
    return builder.create(
        "builtin.unrealized_conversion_cast",
        operands=list(operands),
        result_types=list(result_types),
    )
