"""IRDL definitions for the ops the paper's conditions reference.

The central pair is Fig. 3: the ``memref.subview`` definition and its
*constrained copy* ``memref.subview.constr`` whose variadic offset/size/
stride operand segments are pinned to cardinality zero — the
post-condition of ``expand-strided-metadata`` (Fig. 4).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.core import Operation
from .defs import (
    AttributeDef,
    Cardinality,
    OperandDef,
    OperationDef,
    ResultDef,
    TypeNameConstraint,
)

#: Registry of IRDL definitions keyed by spec name.
IRDL_REGISTRY: Dict[str, OperationDef] = {}


def register_def(definition: OperationDef) -> OperationDef:
    IRDL_REGISTRY[definition.name] = definition
    return definition


def lookup_def(spec_name: str) -> Optional[OperationDef]:
    return IRDL_REGISTRY.get(spec_name)


def _check_subview_semantics(op: Operation) -> Optional[str]:
    """IRDL's CPPConstraint escape hatch (Fig. 3's checkMemrefConstraints)."""
    offsets = op.attr("static_offsets")
    sizes = op.attr("static_sizes")
    strides = op.attr("static_strides")
    if offsets is None or sizes is None or strides is None:
        return "subview requires static_offsets/static_sizes/static_strides"
    if not (len(offsets.values) == len(sizes.values) == len(strides.values)):  # type: ignore[union-attr]
        return "offset/size/stride ranks differ"
    return None


#: Fig. 3 (plain): memref.subview with unbounded dynamic operand segments.
MEMREF_SUBVIEW = register_def(
    OperationDef(
        op_name="memref.subview",
        operands=[
            OperandDef("input", TypeNameConstraint("MemRefType")),
            OperandDef("offset", variadic=True),
            OperandDef("sizes", variadic=True),
            OperandDef("strides", variadic=True),
        ],
        results=[ResultDef("view", TypeNameConstraint("MemRefType"))],
        attributes=[
            AttributeDef("static_offsets"),
            AttributeDef("static_sizes"),
            AttributeDef("static_strides"),
        ],
        extra_constraint=_check_subview_semantics,
    )
)


def _check_trivial_offsets(op: Operation) -> Optional[str]:
    """All static offsets zero and strides one: the 'trivial view' shape."""
    offsets = op.attr("static_offsets")
    strides = op.attr("static_strides")
    if offsets is not None and any(v != 0 for v in offsets.values):  # type: ignore[union-attr]
        return "constrained subview requires all-zero offsets"
    if strides is not None and any(v != 1 for v in strides.values):  # type: ignore[union-attr]
        return "constrained subview requires unit strides"
    return None


#: Fig. 3 (highlighted): the constrained copy pinning the dynamic
#: offset/size/stride segments to cardinality zero. This is a *pseudo
#: operation* used only in pre-/post-conditions — no new op is
#: registered for it.
MEMREF_SUBVIEW_CONSTRAINED = register_def(
    MEMREF_SUBVIEW.constrained_copy(
        offset=OperandDef("offset", variadic=True,
                          cardinality=Cardinality.zero()),
        sizes=OperandDef("sizes", variadic=True,
                         cardinality=Cardinality.zero()),
        strides=OperandDef("strides", variadic=True,
                           cardinality=Cardinality.zero()),
        extra_constraint=_check_trivial_offsets,
    )
)


register_def(
    OperationDef(
        op_name="memref.load",
        operands=[
            OperandDef("memref", TypeNameConstraint("MemRefType")),
            OperandDef("indices", variadic=True),
        ],
        results=[ResultDef("value")],
    )
)

register_def(
    OperationDef(
        op_name="memref.store",
        operands=[
            OperandDef("value"),
            OperandDef("memref", TypeNameConstraint("MemRefType")),
            OperandDef("indices", variadic=True),
        ],
    )
)

register_def(
    OperationDef(
        op_name="affine.apply",
        operands=[OperandDef("operands", variadic=True)],
        results=[ResultDef("result", TypeNameConstraint("IndexType"))],
        attributes=[AttributeDef("map")],
    )
)

