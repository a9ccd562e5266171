"""The func dialect: functions, calls and returns."""

from __future__ import annotations

from typing import Sequence

from ..ir.attributes import StringAttr, SymbolRefAttr, TypeAttr
from ..ir.builder import Builder
from ..ir.core import (
    Block,
    IsTerminator,
    IsolatedFromAbove,
    Operation,
    SymbolTrait,
    Value,
    register_op,
)
from ..ir.types import FunctionType, Type


@register_op
class FuncOp(Operation):
    """A function definition (or declaration when the body is empty)."""

    NAME = "func.func"
    TRAITS = frozenset({SymbolTrait, IsolatedFromAbove})
    #: A declaration prints as ``({})``; the parser must hand it back
    #: block-less, not with the empty entry block other ops get.
    EMPTY_REGION_IS_BLOCKLESS = True

    @property
    def sym_name(self) -> str:
        attr = self.attr("sym_name")
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def function_type(self) -> FunctionType:
        attr = self.attr("function_type")
        assert isinstance(attr, TypeAttr) and isinstance(
            attr.value, FunctionType
        )
        return attr.value

    @property
    def is_declaration(self) -> bool:
        return not self.regions[0].blocks

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify_op(self) -> None:
        if self.is_declaration:
            return
        expected = list(self.function_type.inputs)
        actual = [a.type for a in self.body.args]
        if expected != actual:
            raise ValueError(
                f"func.func @{self.sym_name}: entry block args {actual} "
                f"do not match signature {expected}"
            )


@register_op
class ReturnOp(Operation):
    NAME = "func.return"
    TRAITS = frozenset({IsTerminator})


@register_op
class CallOp(Operation):
    NAME = "func.call"

    @property
    def callee(self) -> str:
        attr = self.attr("callee")
        assert isinstance(attr, SymbolRefAttr)
        return attr.name


def func(
    name: str,
    arg_types: Sequence[Type],
    result_types: Sequence[Type] = (),
    declaration: bool = False,
) -> FuncOp:
    """Create a function; a non-declaration gets an entry block."""
    op = Operation.create(
        "func.func",
        regions=1,
        attributes={
            "sym_name": name,
            "function_type": FunctionType(tuple(arg_types),
                                          tuple(result_types)),
        },
    )
    if not declaration:
        op.regions[0].add_block(Block(list(arg_types)))
    return op  # type: ignore[return-value]


def return_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create("func.return", operands=list(values))


def call(
    builder: Builder,
    callee: str,
    args: Sequence[Value] = (),
    result_types: Sequence[Type] = (),
) -> Operation:
    return builder.create(
        "func.call",
        operands=list(args),
        result_types=list(result_types),
        attributes={"callee": SymbolRefAttr(callee)},
    )
