"""The type system.

Types are immutable objects mirroring MLIR's builtin type hierarchy:
integers, floats, index, function types, and the shaped types (tensor,
memref, vector). Dialects may define further types by subclassing
:class:`Type` (the transform dialect does, see ``repro.core.types``).

Types are uniqued, as in MLIR's context: constructing a type returns
the one live instance with that class and those field values, so ``==``
and ``hash`` are identity, and the spelling is computed once per
instance. Subclasses are ``@dataclass(frozen=True, eq=False)`` with
hashable fields and spell themselves in :meth:`Type._spelling`.

Shapes use ``DYNAMIC`` (``-1``) for dynamically sized dimensions, as in
MLIR's ``?`` notation.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

#: Marker for a dynamic dimension in a shaped type (printed as ``?``).
DYNAMIC = -1

#: (class, *field values) -> the live instance. Weak, so a long-lived
#: process holds only the types its live IR uses.
_UNIQUED: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
#: Parsers run on several threads; two instances of one type would
#: break identity ``==``, so a miss is resolved under this lock.
_UNIQUING = threading.Lock()


class _Uniqued(type):
    """Metaclass of :class:`Type`: ``Cls(...)`` is the uniqued instance.

    The candidate is built first so that defaults and keyword arguments
    key the same way; its field values are its ``__dict__`` (a frozen
    dataclass writes nothing else), and an unhashable one raises here.
    """

    def __call__(cls, *args, **kwargs):
        candidate = super().__call__(*args, **kwargs)
        key = (cls, *vars(candidate).values())
        instance = _UNIQUED.get(key)
        if instance is None:
            object.__setattr__(candidate, "_str", candidate._spelling())
            with _UNIQUING:
                instance = _UNIQUED.setdefault(key, candidate)
        return instance


@dataclass(frozen=True, eq=False)
class Type(metaclass=_Uniqued):
    """Base class of all types."""

    def __str__(self) -> str:
        return self._str

    def _spelling(self) -> str:  # pragma: no cover - overridden
        return "<type>"

    def __reduce__(self):
        # pickle, copy, deepcopy: rebuilt through the constructor, so
        # the copy is the uniqued instance.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# Scalar types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntegerType(Type):
    """An integer type of arbitrary bitwidth, e.g. ``i1``, ``i32``."""

    width: int
    signed: Optional[bool] = None  # None = signless, MLIR default

    def _spelling(self) -> str:
        if self.signed is None:
            return f"i{self.width}"
        return f"{'si' if self.signed else 'ui'}{self.width}"


@dataclass(frozen=True, eq=False)
class IndexType(Type):
    """The platform-sized ``index`` type used for loop bounds and memrefs."""

    def _spelling(self) -> str:
        return "index"


@dataclass(frozen=True, eq=False)
class FloatType(Type):
    """An IEEE floating point type, e.g. ``f16``, ``f32``, ``f64``."""

    width: int

    def _spelling(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True, eq=False)
class NoneType(Type):
    """The unit type ``none``."""

    def _spelling(self) -> str:
        return "none"


# ---------------------------------------------------------------------------
# Aggregate types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FunctionType(Type):
    """A function type ``(inputs) -> (results)``."""

    inputs: Tuple[Type, ...]
    results: Tuple[Type, ...]

    def _spelling(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        if len(self.results) == 1:
            return f"({ins}) -> {self.results[0]}"
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


def _shape_str(shape: Tuple[int, ...]) -> str:
    return "".join(("?" if d == DYNAMIC else str(d)) + "x" for d in shape)


@dataclass(frozen=True, eq=False)
class ShapedType(Type):
    """Base for tensor/memref/vector types carrying a shape."""

    shape: Tuple[int, ...]
    element_type: Type

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def has_static_shape(self) -> bool:
        return all(d != DYNAMIC for d in self.shape)

    @property
    def num_elements(self) -> int:
        if not self.has_static_shape:
            raise ValueError("dynamic shape has no static element count")
        total = 1
        for dim in self.shape:
            total *= dim
        return total


@dataclass(frozen=True, eq=False)
class TensorType(ShapedType):
    """A ranked tensor type, e.g. ``tensor<4x?xf32>``."""

    def _spelling(self) -> str:
        return f"tensor<{_shape_str(self.shape)}{self.element_type}>"


@dataclass(frozen=True)
class MemRefLayout:
    """Strided layout of a memref: ``offset`` plus per-dim ``strides``.

    ``DYNAMIC`` entries denote runtime-determined offsets/strides. The
    identity layout is represented by ``None`` on the memref itself.
    """

    offset: int = 0
    strides: Tuple[int, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        strides = ", ".join("?" if s == DYNAMIC else str(s) for s in self.strides)
        offset = "?" if self.offset == DYNAMIC else str(self.offset)
        return f"strided<[{strides}], offset: {offset}>"


@dataclass(frozen=True, eq=False)
class MemRefType(ShapedType):
    """A memory reference type, e.g. ``memref<4x4xf32>``.

    The optional layout records non-identity strided views produced by
    ``memref.subview``; ``expand-strided-metadata`` (case study 2) turns
    non-trivial layouts back into explicit address arithmetic.
    """

    layout: Optional[MemRefLayout] = None
    memory_space: int = 0

    def _spelling(self) -> str:
        parts = [f"{_shape_str(self.shape)}{self.element_type}"]
        if self.layout is not None:
            parts.append(str(self.layout))
        if self.memory_space != 0:
            parts.append(str(self.memory_space))
        return f"memref<{', '.join(parts)}>"

    def identity_strides(self) -> Tuple[int, ...]:
        """Row-major strides implied by the shape (identity layout)."""
        strides = []
        running = 1
        for dim in reversed(self.shape):
            strides.append(running)
            running *= dim if dim != DYNAMIC else 1
        return tuple(reversed(strides))


@dataclass(frozen=True, eq=False)
class VectorType(ShapedType):
    """A fixed-shape vector type, e.g. ``vector<8xf32>``."""

    def _spelling(self) -> str:
        return f"vector<{_shape_str(self.shape)}{self.element_type}>"


@dataclass(frozen=True, eq=False)
class LLVMPointerType(Type):
    """An opaque LLVM pointer type (``!llvm.ptr``)."""

    address_space: int = 0

    def _spelling(self) -> str:
        if self.address_space:
            return f"!llvm.ptr<{self.address_space}>"
        return "!llvm.ptr"


@dataclass(frozen=True, eq=False)
class LLVMStructType(Type):
    """An LLVM struct type, used for memref descriptors after lowering."""

    members: Tuple[Type, ...]

    def _spelling(self) -> str:
        inner = ", ".join(str(m) for m in self.members)
        return f"!llvm.struct<({inner})>"


@dataclass(frozen=True, eq=False)
class OpaqueType(Type):
    """A dialect-specific opaque type, printed ``!dialect.name``."""

    dialect: str
    name: str

    def _spelling(self) -> str:
        return f"!{self.dialect}.{self.name}"


# Common singletons / factories -------------------------------------------------

I1 = IntegerType(1)
I8 = IntegerType(8)
I16 = IntegerType(16)
I32 = IntegerType(32)
I64 = IntegerType(64)
F16 = FloatType(16)
F32 = FloatType(32)
F64 = FloatType(64)
INDEX = IndexType()
NONE = NoneType()


def tensor(*shape: int, element_type: Type = F32) -> TensorType:
    """Convenience factory: ``tensor(4, 4)`` -> ``tensor<4x4xf32>``."""
    return TensorType(tuple(shape), element_type)


def memref(*shape: int, element_type: Type = F32,
           layout: Optional[MemRefLayout] = None) -> MemRefType:
    """Convenience factory: ``memref(4, 4)`` -> ``memref<4x4xf32>``."""
    return MemRefType(tuple(shape), element_type, layout)


def vector(*shape: int, element_type: Type = F32) -> VectorType:
    """Convenience factory: ``vector(8)`` -> ``vector<8xf32>``."""
    return VectorType(tuple(shape), element_type)
