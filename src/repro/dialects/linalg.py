"""The linalg dialect (subset): structured operations on tensors/memrefs.

``linalg.generic`` models a perfectly nested loop computation via
indexing maps and iterator types; the named ops (``matmul``, ``conv_2d``
...) are sugar over it. This is the landing dialect of the TOSA pipeline
in Table 1 and the unit of tiling in the structured transforms.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ir.attributes import ArrayAttr, IntegerAttr, unwrap
from ..ir.builder import Builder
from ..ir.core import (
    Block,
    IsTerminator,
    Operation,
    Pure,
    SingleBlock,
    Value,
    register_op,
)
from ..ir.types import ShapedType, Type


@register_op
class GenericOp(Operation):
    """The structured computation workhorse.

    Attributes: ``n_inputs`` (operand segmentation) and
    ``iterator_types`` (array of "parallel"/"reduction" strings).
    """

    NAME = "linalg.generic"
    TRAITS = frozenset({SingleBlock})

    @property
    def n_inputs(self) -> int:
        attr = self.attr("n_inputs")
        return attr.value if isinstance(attr, IntegerAttr) else 0

    @property
    def inputs(self) -> List[Value]:
        return self.operands[: self.n_inputs]

    @property
    def iterator_types(self) -> List[str]:
        attr = self.attr("iterator_types")
        if isinstance(attr, ArrayAttr):
            return [unwrap(v) for v in attr.values]
        return []

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify_op(self) -> None:
        if not self.regions or not self.regions[0].blocks:
            raise ValueError("linalg.generic requires a body region")
        expected_args = self.num_operands
        if len(self.body.args) != expected_args:
            raise ValueError(
                "linalg.generic body takes one scalar argument per operand"
            )


class _NamedStructuredOp(Operation):
    """Base for named structured ops: inputs then outputs as operands."""

    N_INPUTS = 2

    @property
    def inputs(self) -> List[Value]:
        return self.operands[: self.N_INPUTS]

    @property
    def body(self) -> Block:
        """The combiner/body region's entry block, when present."""
        return self.regions[0].entry_block


@register_op
class MatmulOp(_NamedStructuredOp):
    NAME = "linalg.matmul"


@register_op
class BatchMatmulOp(_NamedStructuredOp):
    NAME = "linalg.batch_matmul"


@register_op
class Conv2DOp(_NamedStructuredOp):
    NAME = "linalg.conv_2d_nhwc_hwcf"


@register_op
class DepthwiseConv2DOp(_NamedStructuredOp):
    NAME = "linalg.depthwise_conv_2d_nhwc_hwc"


@register_op
class PoolingMaxOp(_NamedStructuredOp):
    NAME = "linalg.pooling_nhwc_max"


@register_op
class PoolingSumOp(_NamedStructuredOp):
    NAME = "linalg.pooling_nhwc_sum"


@register_op
class FillOp(_NamedStructuredOp):
    NAME = "linalg.fill"
    N_INPUTS = 1


@register_op
class TransposeOp(_NamedStructuredOp):
    NAME = "linalg.transpose"
    N_INPUTS = 1


@register_op
class ReduceOp(_NamedStructuredOp):
    NAME = "linalg.reduce"
    N_INPUTS = 1


@register_op
class BroadcastOp(_NamedStructuredOp):
    NAME = "linalg.broadcast"
    N_INPUTS = 1


@register_op
class MapOp(_NamedStructuredOp):
    NAME = "linalg.map"
    N_INPUTS = 1


@register_op
class LinalgYieldOp(Operation):
    NAME = "linalg.yield"
    TRAITS = frozenset({IsTerminator})


@register_op
class IndexOp(Operation):
    NAME = "linalg.index"
    TRAITS = frozenset({Pure})


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def generic(
    builder: Builder,
    inputs: Sequence[Value],
    outputs: Sequence[Value],
    iterator_types: Sequence[str],
    result_types: Sequence[Type] = (),
) -> GenericOp:
    """Create a ``linalg.generic`` with an empty body block.

    The body receives one scalar block argument per input/output; the
    caller populates it and ends with ``linalg.yield``.
    """
    op = builder.create(
        "linalg.generic",
        operands=[*inputs, *outputs],
        result_types=list(result_types),
        attributes={
            "n_inputs": len(inputs),
            "iterator_types": list(iterator_types),
        },
        regions=1,
    )
    arg_types: List[Type] = []
    for value in [*inputs, *outputs]:
        value_type = value.type
        arg_types.append(
            value_type.element_type
            if isinstance(value_type, ShapedType)
            else value_type
        )
    op.regions[0].add_block(Block(arg_types))
    return op  # type: ignore[return-value]


def matmul(builder: Builder, lhs: Value, rhs: Value, init: Value,
           result_types: Sequence[Type] = ()) -> Operation:
    return builder.create(
        "linalg.matmul",
        operands=[lhs, rhs, init],
        result_types=list(result_types),
    )


def fill(builder: Builder, value: Value, init: Value,
         result_types: Sequence[Type] = ()) -> Operation:
    return builder.create(
        "linalg.fill",
        operands=[value, init],
        result_types=list(result_types),
    )


def yield_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create("linalg.yield", operands=list(values))
