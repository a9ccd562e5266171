"""NumPy-ish tensor/scalar ops for traced payload functions.

Each helper takes :class:`~repro.frontend.tracer.TracedValue` proxies,
infers the result type, emits the corresponding ``tosa``/``linalg``/
``tensor``/``arith`` op at the active trace's insertion point, and
returns a new proxy. Used as ``from repro import frontend as fe`` then
``fe.ops.matmul(a, b)`` (also re-exported at package level).
"""

from __future__ import annotations

from typing import Sequence, Union

from ..dialects import arith, linalg, tensor as tensor_dialect, tosa
from ..ir.core import Value
from ..ir.types import F32, TensorType, Type
from .errors import TraceError
from .tracer import TracedValue, _TraceContext, current_context

__all__ = [
    "const", "empty", "constant", "matmul",
    "conv2d", "clamp", "transpose", "reshape", "softmax", "reduce_sum",
    "reduce_max", "reduce_min", "where",
    "maximum", "minimum",
    "abs", "negate", "exp", "log", "rsqrt", "reciprocal", "sigmoid",
    "tanh", "erf", "floor", "ceil",
]


def _traced(value, what: str) -> TracedValue:
    if not isinstance(value, TracedValue):
        raise TraceError(f"{what} expects a traced value, got {value!r}")
    return value


def _tensor(value, what: str) -> TracedValue:
    value = _traced(value, what)
    if not isinstance(value.type, TensorType):
        raise TraceError(f"{what} expects a tensor, got {value.type}")
    value.ctx.require_visible(value.value, f"{what} operand")
    return value


def _wrap(ctx: _TraceContext, value: Value) -> TracedValue:
    return TracedValue(ctx, value)


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def const(shape: Sequence[int], element_type: Type = F32) -> TracedValue:
    """A ``tosa.const`` weight/bias tensor of the given shape."""
    ctx = current_context("frontend.const")
    result_type = TensorType(tuple(int(d) for d in shape), element_type)
    return _wrap(ctx, tosa.const(ctx.builder, result_type))


def empty(shape: Sequence[int], element_type: Type = F32) -> TracedValue:
    """An uninitialized ``tensor.empty`` destination tensor."""
    ctx = current_context("frontend.empty")
    result_type = TensorType(tuple(int(d) for d in shape), element_type)
    return _wrap(ctx, tensor_dialect.empty(ctx.builder, result_type))


def constant(value: Union[int, float], type: Type = F32) -> TracedValue:
    """An ``arith.constant`` scalar."""
    ctx = current_context("frontend.constant")
    return _wrap(ctx, arith.constant(ctx.builder, value, type))


# ---------------------------------------------------------------------------
# Compute
# ---------------------------------------------------------------------------


def matmul(lhs, rhs) -> TracedValue:
    """``tosa.matmul``: 2-D ``(m,k)x(k,n)`` or batched 3-D
    ``(b,m,k)x(b,k,n)``."""
    lhs = _tensor(lhs, "matmul")
    rhs = _tensor(rhs, "matmul")
    a, b = lhs.type.shape, rhs.type.shape
    if len(a) != len(b) or len(a) not in (2, 3):
        raise TraceError(
            f"matmul expects two 2-D or two 3-D tensors, got "
            f"{lhs.type} and {rhs.type}"
        )
    batch_ok = len(a) == 2 or a[0] == b[0]
    if a[-1] != b[-2] or not batch_ok:
        raise TraceError(
            f"matmul shape mismatch: {lhs.type} x {rhs.type}"
        )
    shape = a[:-1] + (b[-1],)
    result_type = TensorType(shape, lhs.type.element_type)
    ctx = lhs.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "matmul",
                              [lhs.value, rhs.value], result_type))


def conv2d(activations, weights) -> TracedValue:
    """``tosa.conv2d`` in the same-shape NHWC convention of
    :mod:`repro.mlmodels`."""
    activations = _tensor(activations, "conv2d")
    weights = _tensor(weights, "conv2d")
    ctx = activations.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "conv2d",
                              [activations.value, weights.value],
                              activations.type))


def clamp(value, min_fp: float = 0.0, max_fp: float = 6.0) -> TracedValue:
    value = _tensor(value, "clamp")
    ctx = value.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "clamp", [value.value],
                              value.type, min_fp=min_fp, max_fp=max_fp))


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def transpose(value, perms: Sequence[int]) -> TracedValue:
    value = _tensor(value, "transpose")
    shape = value.type.shape
    if sorted(perms) != list(range(len(shape))):
        raise TraceError(
            f"transpose perms {list(perms)} is not a permutation of "
            f"rank {len(shape)}"
        )
    result_type = TensorType(tuple(shape[p] for p in perms),
                             value.type.element_type)
    ctx = value.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "transpose", [value.value],
                              result_type, perms=list(perms)))


def reshape(value, new_shape: Sequence[int]) -> TracedValue:
    value = _tensor(value, "reshape")
    new_shape = tuple(int(d) for d in new_shape)
    before = value.type.num_elements
    after = 1
    for dim in new_shape:
        after *= dim
    if before != after:
        raise TraceError(
            f"reshape cannot change element count: {value.type} -> "
            f"{list(new_shape)}"
        )
    result_type = TensorType(new_shape, value.type.element_type)
    ctx = value.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "reshape", [value.value],
                              result_type, new_shape=list(new_shape)))


# ---------------------------------------------------------------------------
# Reductions and softmax
# ---------------------------------------------------------------------------


def _reduce(name: str, value, axis: int) -> TracedValue:
    value = _tensor(value, name)
    shape = value.type.shape
    if not 0 <= axis < len(shape):
        raise TraceError(f"{name} axis {axis} out of range for {value.type}")
    reduced = tuple(1 if i == axis else d for i, d in enumerate(shape))
    result_type = TensorType(reduced, value.type.element_type)
    ctx = value.ctx
    return _wrap(ctx, tosa.op(ctx.builder, name, [value.value],
                              result_type, axis=axis))


def reduce_sum(value, axis: int = 0) -> TracedValue:
    return _reduce("reduce_sum", value, axis)


def reduce_max(value, axis: int = 0) -> TracedValue:
    return _reduce("reduce_max", value, axis)


def reduce_min(value, axis: int = 0) -> TracedValue:
    return _reduce("reduce_min", value, axis)


def softmax(value) -> TracedValue:
    value = _tensor(value, "softmax")
    ctx = value.ctx
    return _wrap(ctx, tosa.op(ctx.builder, "softmax", [value.value],
                              value.type))


# ---------------------------------------------------------------------------
# Selection / comparison
# ---------------------------------------------------------------------------


def where(condition, on_true, on_false) -> TracedValue:
    """``arith.select`` on scalars."""
    condition = _traced(condition, "where")
    on_true = _traced(on_true, "where")
    on_false = _traced(on_false, "where")
    ctx = condition.ctx
    for part in (condition, on_true, on_false):
        ctx.require_visible(part.value, "where operand")
    return _wrap(ctx, arith.select(ctx.builder, condition.value,
                                   on_true.value, on_false.value))


# ---------------------------------------------------------------------------
# Elementwise tensor math
# ---------------------------------------------------------------------------


def _binary_tensor(name: str):
    def build(lhs, rhs) -> TracedValue:
        lhs = _tensor(lhs, name)
        rhs = _tensor(rhs, name)
        result_type = (lhs.type if lhs.type.rank >= rhs.type.rank
                       else rhs.type)
        ctx = lhs.ctx
        return _wrap(ctx, tosa.op(ctx.builder, name,
                                  [lhs.value, rhs.value], result_type))

    build.__name__ = name
    build.__doc__ = f"Elementwise ``tosa.{name}``."
    return build


maximum = _binary_tensor("maximum")
minimum = _binary_tensor("minimum")


def _unary_tensor(name: str):
    def build(value) -> TracedValue:
        value = _tensor(value, name)
        ctx = value.ctx
        return _wrap(ctx, tosa.op(ctx.builder, name, [value.value],
                                  value.type))

    build.__name__ = name
    build.__doc__ = f"Elementwise ``tosa.{name}``."
    return build


abs = _unary_tensor("abs")  # noqa: A001 - mirrors numpy namespace
negate = _unary_tensor("negate")
exp = _unary_tensor("exp")
log = _unary_tensor("log")
rsqrt = _unary_tensor("rsqrt")
reciprocal = _unary_tensor("reciprocal")
sigmoid = _unary_tensor("sigmoid")
tanh = _unary_tensor("tanh")
erf = _unary_tensor("erf")
floor = _unary_tensor("floor")
ceil = _unary_tensor("ceil")
