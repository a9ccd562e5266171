"""IRDL: declarative IR definition with generated constraint verifiers.

A reduced model of the IR Definition Language (Fehr et al., PLDI 2022)
as used by the paper (§3.3): operation definitions carry typed operand/
result/attribute declarations with *constraints*, and verifiers are
generated from those declarations. Constrained *copies* of existing op
definitions (e.g. ``memref.subview.constr`` with zero-cardinality
offset/size/stride operands, Fig. 3) express advanced pre- and
post-conditions of transforms without introducing new ops.
"""

from .defs import (
    AnyAttr,
    AnyType,
    AttributeDef,
    Cardinality,
    ConstraintViolation,
    OperandDef,
    OperationDef,
    ResultDef,
    TypeNameConstraint,
    verify_op,
)
from .library import (
    IRDL_REGISTRY,
    MEMREF_SUBVIEW,
    MEMREF_SUBVIEW_CONSTRAINED,
    lookup_def,
    register_def,
)

__all__ = [
    "AnyAttr",
    "AnyType",
    "AttributeDef",
    "Cardinality",
    "ConstraintViolation",
    "IRDL_REGISTRY",
    "MEMREF_SUBVIEW",
    "MEMREF_SUBVIEW_CONSTRAINED",
    "OperandDef",
    "OperationDef",
    "ResultDef",
    "TypeNameConstraint",
    "lookup_def",
    "register_def",
    "verify_op",
]
