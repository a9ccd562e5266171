"""The memref dialect: memory allocation, access and strided views."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ir.attributes import DenseIntAttr, unwrap
from ..ir.builder import Builder
from ..ir.core import Operation, Pure, Value, register_op
from ..ir.types import DYNAMIC, INDEX, MemRefLayout, MemRefType


@register_op
class AllocOp(Operation):
    NAME = "memref.alloc"

    def verify_op(self) -> None:
        if len(self.results) != 1 or not isinstance(
            self.results[0].type, MemRefType
        ):
            raise ValueError("memref.alloc produces a memref")


@register_op
class AllocaOp(Operation):
    NAME = "memref.alloca"


@register_op
class DeallocOp(Operation):
    NAME = "memref.dealloc"


@register_op
class LoadOp(Operation):
    """``%v = memref.load %ref[%i, %j]``; operands: ref then indices."""

    NAME = "memref.load"

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    def verify_op(self) -> None:
        ref_type = self.memref.type
        if not isinstance(ref_type, MemRefType):
            raise ValueError("memref.load operand must be a memref")
        if len(self.indices) != ref_type.rank:
            raise ValueError(
                f"memref.load: {len(self.indices)} indices for rank-"
                f"{ref_type.rank} memref"
            )


@register_op
class StoreOp(Operation):
    """``memref.store %v, %ref[%i, %j]``; operands: value, ref, indices."""

    NAME = "memref.store"

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def indices(self) -> List[Value]:
        return self.operands[2:]

    def verify_op(self) -> None:
        ref_type = self.memref.type
        if not isinstance(ref_type, MemRefType):
            raise ValueError("memref.store operand #1 must be a memref")
        if len(self.indices) != ref_type.rank:
            raise ValueError("memref.store: index count mismatch")


@register_op
class SubViewOp(Operation):
    """A strided sub-view of a memref (Fig. 3 of the paper).

    Static offsets/sizes/strides live in dense attributes; a ``DYNAMIC``
    entry means the corresponding value is provided as an operand (after
    the source memref, in offset/size/stride order).
    """

    NAME = "memref.subview"
    TRAITS = frozenset({Pure})

    @property
    def source(self) -> Value:
        return self.operand(0)

    @property
    def static_offsets(self) -> Tuple[int, ...]:
        return tuple(unwrap(self.attr("static_offsets")))

    @property
    def static_sizes(self) -> Tuple[int, ...]:
        return tuple(unwrap(self.attr("static_sizes")))

    @property
    def static_strides(self) -> Tuple[int, ...]:
        return tuple(unwrap(self.attr("static_strides")))

    @property
    def dynamic_operands(self) -> List[Value]:
        return self.operands[1:]

    @property
    def has_trivial_metadata(self) -> bool:
        """True when offsets are all-zero and strides all-one and static.

        This is the property the IRDL-constrained ``memref.subview.constr``
        pseudo-op of the paper encodes: after ``expand-strided-metadata``
        every remaining subview must be trivial.
        """
        return (
            not self.dynamic_operands
            and all(offset == 0 for offset in self.static_offsets)
            and all(stride == 1 for stride in self.static_strides)
        )

    def verify_op(self) -> None:
        n_dynamic = sum(
            1
            for group in (self.static_offsets, self.static_sizes,
                          self.static_strides)
            for entry in group
            if entry == DYNAMIC
        )
        if n_dynamic != len(self.dynamic_operands):
            raise ValueError(
                "memref.subview: dynamic operand count does not match "
                "DYNAMIC attribute entries"
            )


@register_op
class ExtractStridedMetadataOp(Operation):
    """Decompose a memref into base buffer + offset + sizes + strides."""

    NAME = "memref.extract_strided_metadata"
    TRAITS = frozenset({Pure})


@register_op
class ReinterpretCastOp(Operation):
    """Reassemble a memref from base + offset/sizes/strides."""

    NAME = "memref.reinterpret_cast"
    TRAITS = frozenset({Pure})


@register_op
class ExtractAlignedPointerAsIndexOp(Operation):
    NAME = "memref.extract_aligned_pointer_as_index"
    TRAITS = frozenset({Pure})


@register_op
class DimOp(Operation):
    NAME = "memref.dim"
    TRAITS = frozenset({Pure})


@register_op
class CastOp(Operation):
    NAME = "memref.cast"
    TRAITS = frozenset({Pure})


@register_op
class CopyOp(Operation):
    NAME = "memref.copy"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def alloc(builder: Builder, type: MemRefType) -> Value:
    return builder.create(
        "memref.alloc", result_types=[type]
    ).result


def load(builder: Builder, memref: Value,
         indices: Sequence[Value]) -> Value:
    ref_type = memref.type
    assert isinstance(ref_type, MemRefType)
    return builder.create(
        "memref.load",
        operands=[memref, *indices],
        result_types=[ref_type.element_type],
    ).result


def store(builder: Builder, value: Value, memref: Value,
          indices: Sequence[Value]) -> Operation:
    return builder.create(
        "memref.store", operands=[value, memref, *indices]
    )


def subview(
    builder: Builder,
    source: Value,
    offsets: Sequence[object],
    sizes: Sequence[object],
    strides: Sequence[object],
) -> Value:
    """Create a subview; entries may be ints (static) or Values (dynamic)."""
    source_type = source.type
    assert isinstance(source_type, MemRefType)

    def split(entries: Sequence[object]) -> Tuple[List[int], List[Value]]:
        static: List[int] = []
        dynamic: List[Value] = []
        for entry in entries:
            if isinstance(entry, int):
                static.append(entry)
            else:
                static.append(DYNAMIC)
                dynamic.append(entry)  # type: ignore[arg-type]
        return static, dynamic

    static_offsets, dyn_offsets = split(offsets)
    static_sizes, dyn_sizes = split(sizes)
    static_strides, dyn_strides = split(strides)

    result_shape = tuple(static_sizes)
    layout_offset = (
        static_offsets[0] if all(o != DYNAMIC for o in static_offsets) and not any(
            o != 0 for o in static_offsets[1:]
        ) else DYNAMIC
    )
    # A non-identity layout is recorded whenever offsets/strides are not
    # trivially zero/one; the exact strides are dynamic from the type's
    # point of view.
    trivial = (
        all(o == 0 for o in static_offsets)
        and all(s == 1 for s in static_strides)
        and not dyn_offsets
        and not dyn_strides
    )
    layout = None if trivial else MemRefLayout(
        DYNAMIC, tuple(DYNAMIC for _ in static_strides)
    )
    result_type = MemRefType(result_shape, source_type.element_type, layout)
    return builder.create(
        "memref.subview",
        operands=[source, *dyn_offsets, *dyn_sizes, *dyn_strides],
        result_types=[result_type],
        attributes={
            "static_offsets": DenseIntAttr(tuple(static_offsets)),
            "static_sizes": DenseIntAttr(tuple(static_sizes)),
            "static_strides": DenseIntAttr(tuple(static_strides)),
        },
    ).result


def dim(builder: Builder, memref: Value, index: Value) -> Value:
    return builder.create(
        "memref.dim", operands=[memref, index], result_types=[INDEX]
    ).result
