"""Transform dialect types: operation handles and parameters.

Handles are SSA values of the transform script referring to lists of
payload operations; parameters carry compile-time constants. Types can
constrain which payload ops a handle may point to
(``!transform.op<"scf.for">``), giving the lightweight static typing
shown in Fig. 1's right-hand-side comments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.parser import Parser, register_type_parser
from ..ir.types import Type


@dataclass(frozen=True, eq=False)
class TransformHandleType(Type):
    """Base class of handle types."""

    def accepts_op_name(self, op_name: str) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class AnyOpType(TransformHandleType):
    """``!transform.any_op``: a handle to arbitrary payload operations."""

    def _spelling(self) -> str:
        return "!transform.any_op"


@dataclass(frozen=True, eq=False)
class OperationHandleType(TransformHandleType):
    """``!transform.op<"scf.for">``: a handle constrained to one op name."""

    op_name: str

    def accepts_op_name(self, op_name: str) -> bool:
        return op_name == self.op_name

    def _spelling(self) -> str:
        return f'!transform.op<"{self.op_name}">'


@dataclass(frozen=True, eq=False)
class ParamType(Type):
    """``!transform.param<i64>``: a compile-time constant parameter."""

    element: str = "i64"

    def _spelling(self) -> str:
        return f"!transform.param<{self.element}>"


@dataclass(frozen=True, eq=False)
class AnyValueType(TransformHandleType):
    """``!transform.any_value``: a handle to payload *values*."""

    def _spelling(self) -> str:
        return "!transform.any_value"


ANY_OP = AnyOpType()
ANY_VALUE = AnyValueType()
PARAM_I64 = ParamType("i64")


def _parse_transform_type(parser: Parser, token_text: str) -> Type:
    body = token_text[len("!transform.") :]
    if body == "any_op":
        return ANY_OP
    if body == "any_value":
        return ANY_VALUE
    if body == "op":
        parser.expect("<")
        op_name = parser.expect_kind("string")[1:-1]
        parser.expect(">")
        return OperationHandleType(op_name)
    if body == "param":
        parser.expect("<")
        element_tokens = []
        while not (parser.check(">") or parser.check("")):
            element_tokens.append(parser.advance())
        parser.expect(">")
        return ParamType("".join(element_tokens))
    raise parser.error(f"unknown transform type {token_text!r}",
                       parser.index - 1)


register_type_parser("transform", _parse_transform_type)
