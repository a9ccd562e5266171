"""Payload tracing: a nelli-style embedded frontend for `repro.ir`.

A function decorated with :func:`jit` is *staged*: it runs once, in
Python, against :class:`TracedValue` proxies, and every operation it
performs is recorded as IR. ``range`` loops become ``scf.for``, scalar
arithmetic becomes ``arith`` ops, and the NumPy-ish tensor helpers in
:mod:`repro.frontend.ops` become ``tosa``/``linalg``/``tensor`` ops.
Shapes and dtypes come from parameter annotations
(``x: Tensor[32, 32]``, ``i: I64``).

The subset is deliberately restricted — data-dependent control flow
(``if traced_value:``), values escaping their loop region, and
un-annotated parameters all raise :class:`~repro.frontend.errors.TraceError`
at trace time rather than producing broken IR.

Every traced module carries a round-trip guarantee: by default the
tracer checks that ``op_digest(parse(print(module))) ==
op_digest(module)`` — a digest is the hash of the print, so the
module's print parses back to IR that prints the same — and traced
payloads key the digest-addressed compile caches exactly like their
printed form.
"""

from __future__ import annotations

import inspect
import types as _pytypes
from typing import Callable, List, Optional, Sequence

from ..dialects import arith, builtin, func, scf
from ..ir.builder import Builder
from ..ir.core import Operation, Value
from ..ir.hashing import op_digest
from ..ir.parser import parse
from ..ir.printer import print_op
from ..ir.types import (
    F16,
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I32,
    I64,
    INDEX,
    IndexType,
    IntegerType,
    TensorType,
    Type,
)
from .errors import TraceError

__all__ = [
    "Tensor",
    "TracedFunction",
    "TracedValue",
    "jit",
]


# ---------------------------------------------------------------------------
# Shape/dtype annotations
# ---------------------------------------------------------------------------


class _TensorMeta(type):
    def __getitem__(cls, item) -> TensorType:
        dims = item if isinstance(item, tuple) else (item,)
        element: Type = F32
        if dims and isinstance(dims[-1], Type):
            element = dims[-1]
            dims = dims[:-1]
        shape = []
        for dim in dims:
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                raise TraceError(
                    f"Tensor dimensions must be positive ints, got {dim!r}"
                )
            shape.append(dim)
        return TensorType(tuple(shape), element)


class Tensor(metaclass=_TensorMeta):
    """Annotation sugar: ``Tensor[4, 8]`` is ``tensor<4x8xf32>``;
    an optional trailing element type (``Tensor[4, 8, F64]``) overrides
    the default ``f32``."""


def _resolve_annotation(annotation, fn: Callable) -> Type:
    if isinstance(annotation, str):
        env = dict(getattr(fn, "__globals__", {}))
        closure = getattr(fn, "__closure__", None) or ()
        freevars = getattr(fn, "__code__", None).co_freevars if closure \
            else ()
        for var, cell in zip(freevars, closure):
            try:
                env[var] = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                pass
        for name, value in (("Tensor", Tensor), ("F16", F16), ("F32", F32),
                            ("F64", F64), ("I1", I1), ("I32", I32),
                            ("I64", I64), ("INDEX", INDEX)):
            env.setdefault(name, value)
        try:
            annotation = eval(annotation, env)  # noqa: S307 - authoring tool
        except Exception as error:
            raise TraceError(
                f"cannot resolve annotation {annotation!r}: {error}"
            ) from None
    if annotation is Tensor:
        raise TraceError("bare 'Tensor' annotation needs a shape, e.g. "
                         "Tensor[32, 32]")
    if not isinstance(annotation, Type):
        raise TraceError(
            f"annotation {annotation!r} is not a repro.ir type; use "
            "Tensor[...], F32/F64, I32/I64, or INDEX"
        )
    return annotation


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------


class _TraceContext:
    """The builder stack for one in-flight trace.

    The innermost builder is where new ops land; entering an
    ``scf.for`` body pushes a builder, leaving it pops. The class-level
    ``current`` slot makes the active trace visible to operand-less
    helpers such as :func:`repro.frontend.ops.const`.
    """

    current: Optional["_TraceContext"] = None

    def __init__(self, root: Builder):
        self._builders: List[Builder] = [root]

    @property
    def builder(self) -> Builder:
        return self._builders[-1]

    def push(self, builder: Builder) -> None:
        self._builders.append(builder)

    def pop(self) -> None:
        self._builders.pop()

    def require_visible(self, value: Value, what: str = "value") -> None:
        """Reject uses of values defined in regions already exited."""
        defining_op = value.defining_op()
        defined_in = defining_op.parent if defining_op is not None \
            else value.owner
        block = self.builder.ip.block
        while block is not None:
            if block is defined_in:
                return
            parent_op = block.parent.parent if block.parent else None
            block = parent_op.parent if parent_op is not None else None
        raise TraceError(
            f"{what} was defined inside a loop body and cannot be used "
            "after the loop ends; keep loop-local values loop-local"
        )


def current_context(what: str = "this operation") -> _TraceContext:
    ctx = _TraceContext.current
    if ctx is None:
        raise TraceError(
            f"{what} is only usable inside a function being traced by "
            "@frontend.jit"
        )
    return ctx


# ---------------------------------------------------------------------------
# Traced values
# ---------------------------------------------------------------------------

_INT_BINARY = {
    "add": arith.addi, "sub": arith.subi, "mul": arith.muli,
    "floordiv": arith.divsi, "mod": arith.remsi,
}
_FLOAT_BINARY = {
    "add": arith.addf, "sub": arith.subf, "mul": arith.mulf,
    "truediv": arith.divf,
}
_TENSOR_BINARY = {"add": "add", "sub": "sub", "mul": "mul"}

_INT_PREDICATES = {"lt": "slt", "le": "sle", "gt": "sgt", "ge": "sge",
                   "eq": "eq", "ne": "ne"}
_FLOAT_PREDICATES = {"lt": "olt", "le": "ole", "gt": "ogt", "ge": "oge",
                     "eq": "oeq", "ne": "one"}


def _is_int_like(type: Type) -> bool:
    return isinstance(type, (IntegerType, IndexType))


class TracedValue:
    """Proxy for one SSA value inside an active trace.

    Python operators on proxies emit IR: ``+``/``-``/``*`` dispatch to
    ``arith`` for scalars and elementwise ``tosa`` for tensors, ``@``
    is ``tosa.matmul``, comparisons emit ``arith.cmpi``/``cmpf``.
    """

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: _TraceContext, value: Value):
        self.ctx = ctx
        self.value = value

    @property
    def type(self) -> Type:
        return self.value.type

    @property
    def shape(self):
        if isinstance(self.type, TensorType):
            return self.type.shape
        raise TraceError(f"value of type {self.type} has no shape")

    def __repr__(self) -> str:
        return f"<traced {self.type}>"

    # -- staging guards ----------------------------------------------------

    def __bool__(self) -> bool:
        raise TraceError(
            "traced values have no Python truth value: data-dependent "
            "control flow (if/while on traced values) cannot be staged"
        )

    def __int__(self) -> int:
        raise TraceError("traced values cannot be converted to Python int")

    __index__ = __int__

    def __float__(self) -> float:
        raise TraceError("traced values cannot be converted to Python float")

    def __iter__(self):
        raise TraceError("traced values are not iterable")

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other, what: str) -> "TracedValue":
        if isinstance(other, TracedValue):
            return other
        if isinstance(other, bool) or not isinstance(other, (int, float)):
            raise TraceError(
                f"cannot mix a traced value with {other!r} in {what}"
            )
        if isinstance(self.type, TensorType):
            raise TraceError(
                f"tensor {what} needs a tensor operand; splat a constant "
                "with frontend.const(...) first"
            )
        value = arith.constant(self.ctx.builder, other, self.type)
        return TracedValue(self.ctx, value)

    def _binary(self, kind: str, other, reverse: bool) -> "TracedValue":
        other = self._coerce(other, f"'{kind}'")
        lhs, rhs = (other, self) if reverse else (self, other)
        self.ctx.require_visible(lhs.value, "left operand")
        self.ctx.require_visible(rhs.value, "right operand")
        builder = self.ctx.builder
        if isinstance(lhs.type, TensorType) or isinstance(rhs.type, TensorType):
            from ..dialects import tosa
            if not (isinstance(lhs.type, TensorType)
                    and isinstance(rhs.type, TensorType)):
                raise TraceError(
                    f"cannot apply '{kind}' between {lhs.type} and {rhs.type}"
                )
            name = _TENSOR_BINARY.get(kind)
            if name is None:
                raise TraceError(f"'{kind}' is not an elementwise tensor op")
            result_type = (lhs.type if lhs.type.rank >= rhs.type.rank
                           else rhs.type)
            return TracedValue(
                self.ctx,
                tosa.op(builder, name, [lhs.value, rhs.value], result_type),
            )
        if lhs.type != rhs.type:
            raise TraceError(
                f"operand type mismatch in '{kind}': {lhs.type} vs {rhs.type}"
            )
        table = (_FLOAT_BINARY if isinstance(lhs.type, FloatType)
                 else _INT_BINARY if _is_int_like(lhs.type) else None)
        if table is None or kind not in table:
            raise TraceError(f"'{kind}' is not supported on {lhs.type}")
        return TracedValue(self.ctx, table[kind](builder, lhs.value, rhs.value))

    def __add__(self, other):
        return self._binary("add", other, False)

    def __radd__(self, other):
        return self._binary("add", other, True)

    def __sub__(self, other):
        return self._binary("sub", other, False)

    def __rsub__(self, other):
        return self._binary("sub", other, True)

    def __mul__(self, other):
        return self._binary("mul", other, False)

    def __rmul__(self, other):
        return self._binary("mul", other, True)

    def __truediv__(self, other):
        return self._binary("truediv", other, False)

    def __rtruediv__(self, other):
        return self._binary("truediv", other, True)

    def __floordiv__(self, other):
        return self._binary("floordiv", other, False)

    def __rfloordiv__(self, other):
        return self._binary("floordiv", other, True)

    def __mod__(self, other):
        return self._binary("mod", other, False)

    def __rmod__(self, other):
        return self._binary("mod", other, True)

    def __neg__(self):
        if isinstance(self.type, TensorType):
            from . import ops
            return ops.negate(self)
        return self._binary("sub", 0 if _is_int_like(self.type) else 0.0,
                            True)

    def __matmul__(self, other):
        from . import ops
        return ops.matmul(self, other)

    # -- comparisons -------------------------------------------------------

    def _compare(self, kind: str, other) -> "TracedValue":
        other = self._coerce(other, f"'{kind}' comparison")
        self.ctx.require_visible(self.value, "left operand")
        self.ctx.require_visible(other.value, "right operand")
        builder = self.ctx.builder
        if isinstance(self.type, TensorType):
            raise TraceError("tensor comparisons are not supported")
        if self.type != other.type:
            raise TraceError(
                f"comparison type mismatch: {self.type} vs {other.type}"
            )
        if isinstance(self.type, FloatType):
            result = builder.create(
                "arith.cmpf",
                operands=[self.value, other.value],
                result_types=[I1],
                attributes={"predicate": _FLOAT_PREDICATES[kind]},
            ).result
        else:
            result = arith.cmpi(builder, _INT_PREDICATES[kind],
                                self.value, other.value)
        return TracedValue(self.ctx, result)

    def __lt__(self, other):
        return self._compare("lt", other)

    def __le__(self, other):
        return self._compare("le", other)

    def __gt__(self, other):
        return self._compare("gt", other)

    def __ge__(self, other):
        return self._compare("ge", other)

    # NB: __eq__/__ne__ keep Python identity semantics so proxies stay
    # usable in dicts/sets.


# ---------------------------------------------------------------------------
# range -> scf.for
# ---------------------------------------------------------------------------


def _as_index(ctx: _TraceContext, bound, what: str) -> Value:
    if isinstance(bound, TracedValue):
        ctx.require_visible(bound.value, what)
        if isinstance(bound.type, IndexType):
            return bound.value
        if isinstance(bound.type, IntegerType):
            return arith.index_cast(ctx.builder, bound.value, INDEX)
        raise TraceError(f"range {what} must be an integer, got {bound.type}")
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise TraceError(f"range {what} must be an int, got {bound!r}")
    return arith.index_constant(ctx.builder, bound)


class _TracedRange:
    """The ``range`` replacement installed while tracing.

    Iterating emits an ``scf.for`` whose body is traced by running the
    Python loop body exactly once against the induction-variable proxy.
    """

    def __init__(self, ctx: _TraceContext, *args):
        if not 1 <= len(args) <= 3:
            raise TraceError(
                f"range expects 1..3 arguments, got {len(args)}"
            )
        self.ctx = ctx
        if len(args) == 1:
            self.start, self.stop, self.step = 0, args[0], 1
        elif len(args) == 2:
            (self.start, self.stop), self.step = args, 1
        else:
            self.start, self.stop, self.step = args

    def __iter__(self):
        ctx = self.ctx
        lower = _as_index(ctx, self.start, "start")
        upper = _as_index(ctx, self.stop, "stop")
        step = _as_index(ctx, self.step, "step")
        loop = scf.for_(ctx.builder, lower, upper, step)
        body = Builder.at_end(loop.body)
        ctx.push(body)
        try:
            yield TracedValue(ctx, loop.induction_var)
        finally:
            scf.yield_(body)
            ctx.pop()


# ---------------------------------------------------------------------------
# The jit decorator
# ---------------------------------------------------------------------------


def _retarget_range(fn: Callable, ctx: _TraceContext) -> Callable:
    """Rebuild ``fn`` with a globals dict whose ``range`` stages loops."""

    def traced_range(*args):
        return _TracedRange(ctx, *args)

    namespace = dict(fn.__globals__)
    namespace["range"] = traced_range
    rebuilt = _pytypes.FunctionType(
        fn.__code__, namespace, fn.__name__, fn.__defaults__, fn.__closure__
    )
    rebuilt.__kwdefaults__ = getattr(fn, "__kwdefaults__", None)
    return rebuilt


def _coerce_results(ctx: _TraceContext, returned) -> List[Value]:
    if returned is None:
        return []
    raw = list(returned) if isinstance(returned, (tuple, list)) else [returned]
    values = []
    for item in raw:
        if not isinstance(item, TracedValue):
            raise TraceError(
                f"traced functions must return traced values (or None), "
                f"got {item!r}"
            )
        ctx.require_visible(item.value, "returned value")
        values.append(item.value)
    return values


class TracedFunction:
    """A staged payload function produced by :func:`jit`.

    ``.module`` / ``.mlir`` / ``.digest`` expose the traced module (a
    fresh trace is cached on first access); :meth:`trace` always runs a
    fresh trace.
    """

    def __init__(self, fn: Callable, name: Optional[str] = None,
                 verify: bool = True, roundtrip: bool = True):
        self.fn = fn
        self.name = name or fn.__name__
        self.verify = verify
        self.roundtrip = roundtrip
        self.__doc__ = fn.__doc__
        self.__name__ = self.name
        self._module: Optional[Operation] = None

    def __repr__(self) -> str:
        return f"<traced function {self.name!r}>"

    def __call__(self, *args, **kwargs):
        if args or kwargs:
            raise TraceError(
                f"{self.name} is staged: it takes no runtime arguments; "
                "use .module / .mlir to get its IR"
            )
        return self.module

    # -- products ----------------------------------------------------------

    @property
    def module(self) -> Operation:
        if self._module is None:
            self._module = self.trace()
        return self._module

    @property
    def mlir(self) -> str:
        return print_op(self.module)

    @property
    def digest(self) -> str:
        return op_digest(self.module)

    # -- tracing -----------------------------------------------------------

    def _signature_types(self) -> List[Type]:
        signature = inspect.signature(self.fn)
        arg_types = []
        for parameter in signature.parameters.values():
            if parameter.kind not in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                raise TraceError(
                    f"parameter {parameter.name!r}: only plain positional "
                    "parameters can be traced"
                )
            if parameter.annotation is inspect.Parameter.empty:
                raise TraceError(
                    f"parameter {parameter.name!r} needs a type annotation "
                    "(Tensor[...], F32, I64, INDEX, ...)"
                )
            arg_types.append(_resolve_annotation(parameter.annotation,
                                                 self.fn))
        return arg_types

    def trace(self) -> Operation:
        """Run the function symbolically and return a fresh module."""
        arg_types = self._signature_types()
        module = builtin.module()
        function = func.func(self.name, arg_types, [])
        module.body.append(function)
        root = Builder.at_end(function.body)
        ctx = _TraceContext(root)
        staged = _retarget_range(self.fn, ctx)
        proxies = [TracedValue(ctx, arg) for arg in function.body.args]
        previous = _TraceContext.current
        _TraceContext.current = ctx
        try:
            returned = staged(*proxies)
        finally:
            _TraceContext.current = previous
        results = _coerce_results(ctx, returned)
        func.return_(root, results)
        function.set_attr(
            "function_type",
            FunctionType(tuple(arg_types), tuple(v.type for v in results)),
        )
        self._check_return_annotation(results)
        if self.verify:
            module.verify()
        if self.roundtrip:
            _check_roundtrip(module, self.name)
        return module

    def _check_return_annotation(self, results: Sequence[Value]) -> None:
        annotation = inspect.signature(self.fn).return_annotation
        if annotation is inspect.Signature.empty or annotation is None:
            return
        declared = annotation if isinstance(annotation, tuple) \
            else (annotation,)
        declared = tuple(_resolve_annotation(a, self.fn) for a in declared)
        actual = tuple(v.type for v in results)
        if declared != actual:
            raise TraceError(
                f"{self.name} declares result types "
                f"{[str(t) for t in declared]} but returned "
                f"{[str(t) for t in actual]}"
            )


def _check_roundtrip(module: Operation, name: str) -> None:
    text = print_op(module)
    reparsed = parse(text, f"<traced {name}>")
    original = op_digest(module)
    if op_digest(reparsed) != original:
        raise TraceError(
            f"traced module {name!r} is not digest-stable under "
            "print -> parse round-trip; this would corrupt cache keys"
        )


def jit(fn: Optional[Callable] = None, *, name: Optional[str] = None,
        verify: bool = True, roundtrip: bool = True):
    """Stage a restricted Python function into a `repro.ir` module.

    Usable bare (``@jit``) or configured
    (``@jit(name="main", roundtrip=False)``).
    """

    def wrap(f: Callable) -> TracedFunction:
        return TracedFunction(f, name=name, verify=verify,
                              roundtrip=roundtrip)

    return wrap(fn) if fn is not None else wrap
