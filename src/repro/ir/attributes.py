"""Attributes: immutable compile-time metadata attached to operations.

Attributes mirror MLIR's builtin attribute hierarchy. They are hashable
value objects so they can key dictionaries (e.g. constant pools) and be
shared between cloned operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple, Union

from .types import F64, I64, INDEX, Type


@dataclass(frozen=True)
class Attribute:
    """Base class of all attributes.

    ``str(attribute)`` is its one spelling: the parseable text the
    printer writes, the digest hashes and CSE keys on.
    """

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "<attr>"


@dataclass(frozen=True)
class UnitAttr(Attribute):
    """A presence-only attribute (MLIR's ``unit``)."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class BoolAttr(Attribute):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class IntegerAttr(Attribute):
    """An integer attribute with an associated type (``42 : i32``)."""

    value: int
    type: Type = I64

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class FloatAttr(Attribute):
    value: float
    type: Type = F64

    def __str__(self) -> str:
        # repr of the float: an integral value keeps its ``.0`` and
        # parses back as a float attribute.
        return f"{float(self.value)!r} : {self.type}"


@dataclass(frozen=True)
class StringAttr(Attribute):
    value: str

    def __str__(self) -> str:
        value = self.value
        if '"' in value or "\\" in value:
            value = value.replace("\\", "\\\\").replace('"', '\\"')
        return '"' + value + '"'


@dataclass(frozen=True)
class TypeAttr(Attribute):
    value: Type

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymbolRefAttr(Attribute):
    """A reference to a symbol by name (``@foo``)."""

    name: str
    nested: Tuple[str, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        parts = [f"@{self.name}"] + [f"::@{n}" for n in self.nested]
        return "".join(parts)


@dataclass(frozen=True)
class ArrayAttr(Attribute):
    values: Tuple[Attribute, ...]

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.values)) + "]"

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Attribute:
        return self.values[index]


@dataclass(frozen=True)
class DictAttr(Attribute):
    entries: Tuple[Tuple[str, Attribute], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[str, Attribute]) -> "DictAttr":
        return DictAttr(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.entries)

    def __str__(self) -> str:
        return "{" + ", ".join(
            [f"{k} = {v}" for k, v in self.entries]) + "}"


@dataclass(frozen=True)
class DenseIntAttr(Attribute):
    """A flat dense integer array (simplified ``dense<...>`` elements attr)."""

    values: Tuple[int, ...]
    type: Type = I64

    def __str__(self) -> str:
        return f"dense<[{', '.join(map(str, self.values))}]> : {self.type}"

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DenseFloatAttr(Attribute):
    """A flat dense float array."""

    values: Tuple[float, ...]
    type: Type = F64

    def __str__(self) -> str:
        return f"dense<[{', '.join(map(str, self.values))}]> : {self.type}"


@dataclass(frozen=True)
class AffineMapAttr(Attribute):
    """Wraps an affine map (see :mod:`repro.ir.affine`)."""

    map: "object"  # AffineMap; untyped to avoid a circular import

    def __str__(self) -> str:
        return f"affine_map<{self.map}>"


# Convenience constructors ----------------------------------------------------

AttrLike = Union[Attribute, int, float, bool, str, Type, list, tuple, dict]


def attr(value: AttrLike) -> Attribute:
    """Coerce a plain Python value into an :class:`Attribute`.

    ``int`` -> IntegerAttr(i64), ``bool`` -> BoolAttr, ``float`` ->
    FloatAttr, ``str`` -> StringAttr, ``Type`` -> TypeAttr, sequences ->
    ArrayAttr, mappings -> DictAttr. Attributes pass through unchanged.
    """
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):  # must precede int check
        return BoolAttr(value)
    if isinstance(value, int):
        return IntegerAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return StringAttr(value)
    if isinstance(value, Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr(tuple(attr(v) for v in value))
    if isinstance(value, dict):
        return DictAttr.from_mapping({k: attr(v) for k, v in value.items()})
    raise TypeError(f"cannot convert {value!r} to an attribute")


def index_attr(value: int) -> IntegerAttr:
    return IntegerAttr(value, INDEX)


def unwrap(attribute: Attribute):
    """Extract the plain Python payload of simple attributes."""
    if isinstance(attribute, (IntegerAttr, FloatAttr, StringAttr, BoolAttr)):
        return attribute.value
    if isinstance(attribute, TypeAttr):
        return attribute.value
    if isinstance(attribute, ArrayAttr):
        return [unwrap(v) for v in attribute.values]
    if isinstance(attribute, DenseIntAttr):
        return list(attribute.values)
    if isinstance(attribute, DictAttr):
        return {k: unwrap(v) for k, v in attribute.entries}
    if isinstance(attribute, SymbolRefAttr):
        return attribute.name
    if isinstance(attribute, UnitAttr):
        return True
    raise TypeError(f"cannot unwrap {attribute!r}")
