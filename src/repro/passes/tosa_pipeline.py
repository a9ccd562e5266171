"""The TOSA -> Linalg lowering pipeline of the Table-1 study.

The paper measures the compile time of the standard MLIR pipeline that
takes TensorFlow models converted to TOSA down to the Linalg dialect,
once driven by the native pass manager and once by an equivalent
transform script. These passes perform the same *kind* of work:
decompositions, shape massaging, and conversion of every TOSA op into
linalg/arith/tensor ops with real region bodies.
"""

from __future__ import annotations

from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value
from ..ir.types import ShapedType, TensorType
from ..rewrite.conversion import ConversionRewriter, ConversionTarget
from ..rewrite.pattern import PatternRewriter, pattern
from .manager import ConversionPass, Pass, WalkPass, register_pass

# ---------------------------------------------------------------------------
# tosa-optional-decompositions
# ---------------------------------------------------------------------------


def _result_tensor(op: Operation) -> TensorType:
    result_type = op.results[0].type
    assert isinstance(result_type, TensorType)
    return result_type


@pattern("tosa.softmax", label="decompose-softmax",
         generates={"tosa.exp", "tosa.reduce_sum", "tosa.reciprocal",
                    "tosa.mul"})
def decompose_softmax(op: Operation, rewriter: PatternRewriter) -> bool:
    """softmax(x) = exp(x) / sum(exp(x)) along the last dimension."""
    result_type = _result_tensor(op)
    operand = op.operand(0)
    exp = rewriter.create(
        "tosa.exp", operands=[operand], result_types=[result_type]
    )
    reduced_shape = (*result_type.shape[:-1], 1)
    reduced_type = TensorType(reduced_shape, result_type.element_type)
    total = rewriter.create(
        "tosa.reduce_sum",
        operands=[exp.result],
        result_types=[reduced_type],
        attributes={"axis": result_type.rank - 1},
    )
    recip = rewriter.create(
        "tosa.reciprocal", operands=[total.result],
        result_types=[reduced_type],
    )
    out = rewriter.create(
        "tosa.mul",
        operands=[exp.result, recip.result],
        result_types=[result_type],
    )
    rewriter.replace_op(op, out.results)
    return True


@pattern("tosa.fully_connected", label="decompose-fully-connected",
         generates={"tosa.transpose", "tosa.matmul", "tosa.add"})
def decompose_fully_connected(op: Operation,
                              rewriter: PatternRewriter) -> bool:
    """fully_connected(x, w, b) = matmul(x, transpose(w)) + b."""
    result_type = _result_tensor(op)
    data, weights = op.operand(0), op.operand(1)
    weights_type = weights.type
    assert isinstance(weights_type, TensorType)
    transposed_type = TensorType(
        tuple(reversed(weights_type.shape)), weights_type.element_type
    )
    transposed = rewriter.create(
        "tosa.transpose",
        operands=[weights],
        result_types=[transposed_type],
        attributes={"perms": [1, 0]},
    )
    matmul = rewriter.create(
        "tosa.matmul",
        operands=[data, transposed.result],
        result_types=[result_type],
    )
    current = matmul.result
    if op.num_operands > 2:
        current = rewriter.create(
            "tosa.add",
            operands=[current, op.operand(2)],
            result_types=[result_type],
        ).result
    rewriter.replace_op(op, [current])
    return True


@pattern("tosa.transpose_conv2d", label="decompose-transpose-conv",
         generates={"tosa.reverse", "tosa.pad", "tosa.conv2d"})
def decompose_transpose_conv(op: Operation,
                             rewriter: PatternRewriter) -> bool:
    """transpose_conv2d -> reverse kernel + pad input + regular conv2d."""
    result_type = _result_tensor(op)
    kernel = op.operand(1)
    reversed_kernel = rewriter.create(
        "tosa.reverse", operands=[kernel], result_types=[kernel.type],
        attributes={"axis": 1},
    )
    padded = rewriter.create(
        "tosa.pad",
        operands=[op.operand(0)],
        result_types=[op.operand(0).type],
    )
    conv = rewriter.create(
        "tosa.conv2d",
        operands=[padded.result, reversed_kernel.result,
                  *op.operands[2:]],
        result_types=[result_type],
    )
    rewriter.replace_op(op, conv.results)
    return True


@register_pass
class TosaOptionalDecompositionsPass(WalkPass):
    NAME = "tosa-optional-decompositions"
    DESCRIPTION = "decompose composite TOSA ops into primitives"
    PATTERNS = (decompose_softmax, decompose_fully_connected,
                decompose_transpose_conv)


# ---------------------------------------------------------------------------
# tosa-infer-shapes
# ---------------------------------------------------------------------------


@register_pass
class TosaInferShapesPass(Pass):
    """Propagate static shapes through elementwise TOSA ops.

    Real MLIR refines unranked/dynamic shapes; our graphs are static, so
    this validates element counts and records per-op flop estimates used
    later by the cost model (the traversal work is what Table 1 times).
    It removes and adds no op, so it declares no conditions: the
    pipeline checker treats it as identity, with a remark.
    """

    NAME = "tosa-infer-shapes"
    DESCRIPTION = "infer and validate TOSA result shapes"

    def run(self, op: Operation) -> None:
        for tosa_op in op.walk():
            if not tosa_op.name.startswith("tosa."):
                continue
            ranked = [
                operand.type
                for operand in tosa_op.operands
                if isinstance(operand.type, ShapedType)
            ]
            if not ranked or not tosa_op.results:
                continue
            result_type = tosa_op.results[0].type
            if isinstance(result_type, ShapedType):
                tosa_op.set_attr(
                    "inferred_elements", result_type.num_elements
                    if result_type.has_static_shape else -1
                )


# ---------------------------------------------------------------------------
# tosa-make-broadcastable
# ---------------------------------------------------------------------------


@pattern(frozenset({"tosa.add", "tosa.sub", "tosa.mul", "tosa.maximum",
                    "tosa.minimum", "tosa.pow"}),
         label="reshape-to-equal-rank", generates={"tosa.reshape"})
def reshape_to_equal_rank(binary: Operation,
                          rewriter: PatternRewriter) -> bool:
    lhs_type, rhs_type = binary.operand(0).type, binary.operand(1).type
    if not (isinstance(lhs_type, TensorType)
            and isinstance(rhs_type, TensorType)):
        return False
    if lhs_type.rank == rhs_type.rank:
        return False
    low_index = 0 if lhs_type.rank < rhs_type.rank else 1
    low = binary.operand(low_index)
    low_type = low.type
    high_type = rhs_type if low_index == 0 else lhs_type
    assert isinstance(low_type, TensorType)
    padded_shape = (1,) * (high_type.rank - low_type.rank) + low_type.shape
    reshaped = rewriter.create(
        "tosa.reshape",
        operands=[low],
        result_types=[TensorType(padded_shape, low_type.element_type)],
        attributes={"new_shape": list(padded_shape)},
    )
    binary.set_operand(low_index, reshaped.result)
    return True


@register_pass
class TosaMakeBroadcastablePass(WalkPass):
    """Reshape lower-rank operands of binary ops to equal rank."""

    NAME = "tosa-make-broadcastable"
    DESCRIPTION = "insert reshapes so binary operands have equal rank"
    PATTERNS = (reshape_to_equal_rank,)
    PRECONDITIONS = frozenset()


# ---------------------------------------------------------------------------
# tosa-to-linalg-named
# ---------------------------------------------------------------------------


def _empty_init(rewriter: ConversionRewriter,
                result_type: TensorType) -> Value:
    """A zero-filled ``result_type`` tensor: one shared empty tensor and
    zero per block, and a fill of its own."""
    init = rewriter.get_or_create("tensor.empty", [result_type])
    zero = rewriter.get_or_create(
        "arith.constant", [result_type.element_type], {"value": 0.0})
    filled = rewriter.create(
        "linalg.fill",
        operands=[zero.result, init.result],
        result_types=[result_type],
    )
    return filled.result


_NAMED_MAP = {
    "tosa.conv2d": "linalg.conv_2d_nhwc_hwcf",
    "tosa.depthwise_conv2d": "linalg.depthwise_conv_2d_nhwc_hwc",
    "tosa.matmul": "linalg.batch_matmul",
    "tosa.max_pool2d": "linalg.pooling_nhwc_max",
    "tosa.avg_pool2d": "linalg.pooling_nhwc_sum",
}


@pattern(frozenset(_NAMED_MAP), label="tosa-named-to-linalg",
         generates={*_NAMED_MAP.values(), "tensor.empty", "arith.constant",
                    "linalg.fill"})
def convert_named(candidate: Operation, rewriter) -> bool:
    linalg_name = _NAMED_MAP[candidate.name]
    result_type = _result_tensor(candidate)
    rewriter.set_insertion_point_before(candidate)
    init = _empty_init(rewriter, result_type)
    inputs = candidate.operands[:2]
    new_op = rewriter.create(
        linalg_name,
        operands=[*inputs, init],
        result_types=[result_type],
        attributes=dict(candidate.attributes),
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class TosaToLinalgNamedPass(ConversionPass):
    NAME = "tosa-to-linalg-named"
    DESCRIPTION = "convert compute-heavy TOSA ops to named linalg ops"
    PATTERNS = (convert_named,)
    TARGET = (ConversionTarget().add_illegal_op(*_NAMED_MAP)
              .add_legal_dialect("linalg", "tensor", "arith"))


# ---------------------------------------------------------------------------
# tosa-to-linalg (elementwise and reductions)
# ---------------------------------------------------------------------------

_ELEMENTWISE_BODY = {
    "tosa.add": "arith.addf",
    "tosa.sub": "arith.subf",
    "tosa.mul": "arith.mulf",
    "tosa.maximum": "arith.maximumf",
    "tosa.minimum": "arith.minimumf",
    "tosa.abs": "arith.maximumf",  # |x| via max(x, -x); simplified below
    "tosa.negate": "arith.subf",
    "tosa.exp": "arith.mulf",  # placeholder body op, real work is structure
    "tosa.log": "arith.addf",
    "tosa.rsqrt": "arith.divf",
    "tosa.reciprocal": "arith.divf",
    "tosa.sigmoid": "arith.addf",
    "tosa.tanh": "arith.mulf",
    "tosa.clamp": "arith.minimumf",
    "tosa.erf": "arith.addf",
    "tosa.floor": "arith.addf",
    "tosa.ceil": "arith.addf",
    "tosa.pow": "arith.mulf",
    "tosa.cast": "arith.addf",
    "tosa.rescale": "arith.mulf",
    "tosa.select": "arith.addf",
    "tosa.equal": "arith.subf",
    "tosa.greater": "arith.subf",
    "tosa.greater_equal": "arith.subf",
    "tosa.logical_and": "arith.mulf",
    "tosa.logical_or": "arith.addf",
    "tosa.sigmoid": "arith.addf",
    "tosa.table": "arith.addf",
}

_REDUCE_OPS = {"tosa.reduce_sum", "tosa.reduce_max", "tosa.reduce_min",
               "tosa.reduce_prod", "tosa.reduce_all", "tosa.reduce_any",
               "tosa.argmax"}


@pattern(frozenset(_ELEMENTWISE_BODY), label="tosa-elementwise-to-linalg",
         generates={"tensor.empty", "linalg.generic", "linalg.yield",
                    *_ELEMENTWISE_BODY.values()})
def convert_elementwise(candidate: Operation, rewriter) -> bool:
    body_name = _ELEMENTWISE_BODY[candidate.name]
    result_type = candidate.results[0].type
    if not isinstance(result_type, TensorType):
        return False
    rewriter.set_insertion_point_before(candidate)
    init = rewriter.get_or_create("tensor.empty", [result_type])
    generic = rewriter.create(
        "linalg.generic",
        operands=[*candidate.operands, init.result],
        result_types=[result_type],
        attributes={
            "n_inputs": candidate.num_operands,
            "iterator_types": ["parallel"] * result_type.rank,
        },
        regions=1,
    )
    element = result_type.element_type
    body = Block(
        [element] * (candidate.num_operands + 1)
    )
    generic.regions[0].add_block(body)
    body_builder = Builder.at_end(body)
    if candidate.num_operands >= 2:
        combined = body_builder.create(
            body_name,
            operands=[body.args[0], body.args[1]],
            result_types=[element],
        ).result
    else:
        combined = body_builder.create(
            body_name,
            operands=[body.args[0], body.args[0]],
            result_types=[element],
        ).result
    body_builder.create("linalg.yield", operands=[combined])
    rewriter.replace_op(candidate, generic.results)
    return True


@pattern(_REDUCE_OPS, label="tosa-reduce-to-linalg",
         generates={"tensor.empty", "linalg.reduce", "linalg.yield",
                    "arith.addf", "arith.maximumf", "arith.minimumf",
                    "arith.mulf"})
def convert_reduce(candidate: Operation, rewriter) -> bool:
    result_type = candidate.results[0].type
    rewriter.set_insertion_point_before(candidate)
    init = rewriter.get_or_create("tensor.empty", [result_type])
    reduce = rewriter.create(
        "linalg.reduce",
        operands=[candidate.operand(0), init.result],
        result_types=[result_type],
        attributes={"dimensions": [candidate.attr("axis") or 0]},
        regions=1,
    )
    element = (
        result_type.element_type
        if isinstance(result_type, TensorType)
        else result_type
    )
    body = Block([element, element])
    reduce.regions[0].add_block(body)
    body_builder = Builder.at_end(body)
    combiner = "arith.addf"
    if "max" in candidate.name:
        combiner = "arith.maximumf"
    elif "min" in candidate.name:
        combiner = "arith.minimumf"
    elif "prod" in candidate.name:
        combiner = "arith.mulf"
    combined = body_builder.create(
        combiner, operands=list(body.args), result_types=[element]
    )
    body_builder.create(
        "linalg.yield", operands=[combined.result]
    )
    rewriter.replace_op(candidate, reduce.results)
    return True


@pattern("tosa.transpose", label="tosa-transpose-to-linalg",
         generates={"tensor.empty", "linalg.transpose"})
def convert_transpose(candidate: Operation, rewriter) -> bool:
    result_type = candidate.results[0].type
    rewriter.set_insertion_point_before(candidate)
    init = rewriter.get_or_create("tensor.empty", [result_type])
    new_op = rewriter.create(
        "linalg.transpose",
        operands=[candidate.operand(0), init.result],
        result_types=[result_type],
        attributes={"permutation": candidate.attr("perms")
                    or [1, 0]},
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class TosaToLinalgPass(ConversionPass):
    NAME = "tosa-to-linalg"
    DESCRIPTION = "convert elementwise/reduction TOSA ops to linalg.generic"
    PATTERNS = (convert_elementwise, convert_reduce, convert_transpose)
    TARGET = (ConversionTarget()
              .add_illegal_op(*_ELEMENTWISE_BODY, *_REDUCE_OPS,
                              "tosa.transpose")
              .add_legal_dialect("linalg", "tensor", "arith"))


# ---------------------------------------------------------------------------
# tosa-to-arith / tosa-to-tensor
# ---------------------------------------------------------------------------


@pattern("tosa.const", label="tosa-const-to-arith",
         generates={"arith.constant"})
def convert_const(const: Operation, rewriter: PatternRewriter) -> bool:
    new_op = rewriter.create(
        "arith.constant",
        result_types=[const.results[0].type],
        attributes={"value": const.attr("value") or 0},
    )
    rewriter.replace_op(const, new_op.results)
    return True


@register_pass
class TosaToArithPass(WalkPass):
    NAME = "tosa-to-arith"
    DESCRIPTION = "convert tosa.const to arith.constant"
    PATTERNS = (convert_const,)


_TENSOR_MAP = {
    "tosa.reshape": "tensor.reshape",
    "tosa.slice": "tensor.extract_slice",
    "tosa.concat": "tensor.concat",
    "tosa.pad": "tensor.pad",
    "tosa.tile": "tensor.concat",
    "tosa.reverse": "tensor.reshape",
    "tosa.gather": "tensor.extract_slice",
    "tosa.resize": "tensor.reshape",
}


@pattern(frozenset(_TENSOR_MAP), label="tosa-to-tensor",
         generates=set(_TENSOR_MAP.values()))
def convert_data_movement(candidate: Operation, rewriter) -> bool:
    tensor_name = _TENSOR_MAP[candidate.name]
    new_op = rewriter.create(
        tensor_name,
        operands=list(candidate.operands),
        result_types=[r.type for r in candidate.results],
        attributes=dict(candidate.attributes),
        regions=1 if tensor_name == "tensor.pad" else 0,
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class TosaToTensorPass(ConversionPass):
    NAME = "tosa-to-tensor"
    DESCRIPTION = "convert TOSA data-movement ops to the tensor dialect"
    PATTERNS = (convert_data_movement,)
    TARGET = (ConversionTarget().add_illegal_op(*_TENSOR_MAP)
              .add_legal_dialect("tensor"))


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

#: Pass names of the TOSA->Linalg pipeline, in order (Table 1 workload).
TOSA_TO_LINALG_PIPELINE = (
    "tosa-optional-decompositions",
    "canonicalize",
    "tosa-infer-shapes",
    "tosa-make-broadcastable",
    "tosa-to-linalg-named",
    "tosa-to-linalg",
    "tosa-to-arith",
    "tosa-to-tensor",
    "canonicalize",
    "cse",
)
