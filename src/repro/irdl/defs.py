"""IRDL definitions: constraints, operand/result/attribute declarations.

An :class:`OperationDef` is a declarative specification from which a
verifier is *generated* (:func:`verify_op`) — mirroring IRDL's ability
to auto-generate constraint verifiers, which the paper leverages for
dynamic pre-/post-condition checking (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..ir.attributes import Attribute
from ..ir.core import Operation
from ..ir.types import Type

# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class TypeConstraint:
    """Constrains the type of an operand or result."""

    def check(self, type: Type) -> Optional[str]:
        """Return a violation message, or None when satisfied."""
        raise NotImplementedError


class AnyType(TypeConstraint):
    def check(self, type: Type) -> Optional[str]:
        return None

    def __repr__(self) -> str:
        return "AnyType"


@dataclass
class TypeNameConstraint(TypeConstraint):
    """The type's class name must match (e.g. ``MemRefType``)."""

    class_name: str

    def check(self, type: Type) -> Optional[str]:
        if type.__class__.__name__ != self.class_name:
            return (
                f"expected {self.class_name}, got {type.__class__.__name__}"
            )
        return None


class AttrConstraint:
    """Constrains an attribute value."""

    def check(self, attr: Attribute) -> Optional[str]:
        raise NotImplementedError


class AnyAttr(AttrConstraint):
    def check(self, attr: Attribute) -> Optional[str]:
        return None


# ---------------------------------------------------------------------------
# Cardinality of variadic segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cardinality:
    """How many operands a variadic segment may bind."""

    min: int = 0
    max: Optional[int] = None  # None = unbounded

    @staticmethod
    def zero() -> "Cardinality":
        """The Fig. 3 highlight: a variadic segment pinned to cardinality 0."""
        return Cardinality(0, 0)

    def check(self, count: int) -> Optional[str]:
        if count < self.min:
            return f"expected at least {self.min} operands, got {count}"
        if self.max is not None and count > self.max:
            return f"expected at most {self.max} operands, got {count}"
        return None


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class OperandDef:
    name: str
    constraint: TypeConstraint = field(default_factory=AnyType)
    variadic: bool = False
    cardinality: Cardinality = field(default_factory=Cardinality)


@dataclass
class ResultDef:
    name: str
    constraint: TypeConstraint = field(default_factory=AnyType)
    variadic: bool = False


@dataclass
class AttributeDef:
    name: str
    constraint: AttrConstraint = field(default_factory=AnyAttr)
    optional: bool = False


@dataclass
class ConstraintViolation:
    """A single generated-verifier failure."""

    op_name: str
    message: str

    def __str__(self) -> str:
        return f"'{self.op_name}': {self.message}"


@dataclass
class OperationDef:
    """A declarative operation specification.

    ``spec_name`` is the name used in pre-/post-conditions; for
    constrained copies of existing ops it carries the ``.constr``
    suffix (e.g. ``memref.subview.constr``) while ``op_name`` stays the
    real op name, matching the paper's "we do not actually introduce a
    new operation".
    """

    op_name: str
    operands: List[OperandDef] = field(default_factory=list)
    results: List[ResultDef] = field(default_factory=list)
    attributes: List[AttributeDef] = field(default_factory=list)
    spec_name: Optional[str] = None
    #: Extra Python-level predicate (IRDL's CPPConstraint escape hatch).
    extra_constraint: Optional[Callable[[Operation], Optional[str]]] = None

    @property
    def name(self) -> str:
        return self.spec_name or self.op_name

    def constrained_copy(self, **overrides) -> "OperationDef":
        """A copy with some declarations replaced (Fig. 3 highlights)."""
        new_operands = [
            overrides.get(operand.name, operand) for operand in self.operands
        ]
        new_attributes = [
            overrides.get(attr.name, attr) for attr in self.attributes
        ]
        return OperationDef(
            op_name=self.op_name,
            operands=new_operands,
            results=list(self.results),
            attributes=new_attributes,
            spec_name=f"{self.op_name}.constr",
            extra_constraint=overrides.get(
                "extra_constraint", self.extra_constraint
            ),
        )


def verify_op(op: Operation, definition: OperationDef) -> List[ConstraintViolation]:
    """The generated verifier: check ``op`` against ``definition``."""
    violations: List[ConstraintViolation] = []

    def note(message: str) -> None:
        violations.append(ConstraintViolation(definition.name, message))

    # Operand segmentation: fixed operands first, then variadic segments
    # greedily in declaration order, with cardinality bounds.
    fixed = [o for o in definition.operands if not o.variadic]
    variadic = [o for o in definition.operands if o.variadic]
    actual = op.operands
    if len(actual) < len(fixed):
        note(
            f"expected at least {len(fixed)} operands, got {len(actual)}"
        )
        return violations
    for operand_def, value in zip(fixed, actual):
        violation = operand_def.constraint.check(value.type)
        if violation:
            note(f"operand '{operand_def.name}': {violation}")
    remaining = len(actual) - len(fixed)
    if variadic:
        # Distribute remaining operands: all but the last segment take
        # their minimum; the last takes the rest.
        for segment in variadic[:-1]:
            count = segment.cardinality.min
            violation = segment.cardinality.check(count)
            if violation:
                note(f"operand segment '{segment.name}': {violation}")
            remaining -= count
        violation = variadic[-1].cardinality.check(remaining)
        if violation:
            note(f"operand segment '{variadic[-1].name}': {violation}")
    elif remaining:
        note(f"unexpected extra operands: {remaining}")

    for result_def, result in zip(definition.results, op.results):
        violation = result_def.constraint.check(result.type)
        if violation:
            note(f"result '{result_def.name}': {violation}")

    for attr_def in definition.attributes:
        attr = op.attr(attr_def.name)
        if attr is None:
            if not attr_def.optional:
                note(f"missing required attribute '{attr_def.name}'")
            continue
        violation = attr_def.constraint.check(attr)
        if violation:
            note(f"attribute '{attr_def.name}': {violation}")

    if definition.extra_constraint is not None:
        violation = definition.extra_constraint(op)
        if violation:
            note(violation)
    return violations
