"""Dialect conversion: legality-driven lowering with type conversion.

A simplified but behaviourally faithful model of MLIR's dialect
conversion framework:

* a :class:`ConversionTarget` declares which dialects are legal and
  which ops/dialects are illegal;
* a :class:`TypeConverter` maps source types to target types;
* :func:`apply_conversion` drives patterns over illegal ops, visiting
  each once. Each attempt is a transaction: an
  :class:`~repro.ir.core.UndoLog` records what the pattern wrote, says
  which ops it created, and undoes an attempt that fails.
* When a replacement value's type differs from the replaced result's
  type, a ``builtin.unrealized_conversion_cast`` is materialized —
  exactly the temporary ops whose failed reconciliation produces the
  case-study-2 error message.
* A pattern that asks :meth:`ConversionRewriter.get_or_create` for an
  operand-free ``Pure`` op (a zero constant, an empty tensor) shares
  one per block, as upstream's ``OperationFolder::getOrCreateConstant``
  does, instead of building a copy that ``cse`` would delete.
"""

from __future__ import annotations

from itertools import islice
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..ir.attributes import attr as make_attr
from ..ir.core import (OP_REGISTRY, Block, Operation, Pure, UndoLog, Value,
                       _changed)
from ..ir.types import Type
from .greedy import FrozenPatternSet
from .pattern import PatternRewriter, RewritePattern

#: How deep :func:`apply_conversion` legalizes the ops a conversion
#: created, and how many rounds it retries the ops no pattern converted.
_MAX_ITERATIONS = 10


class ConversionError(Exception):
    """Legalization failure, carrying the offending operation."""

    def __init__(self, message: str, op: Optional[Operation] = None):
        super().__init__(message)
        self.op = op


class TypeConverter:
    """Converts source types to target types via registered callbacks."""

    def __init__(self) -> None:
        self._conversions: List[Callable[[Type], Optional[Type]]] = []

    def add_conversion(self, fn: Callable[[Type], Optional[Type]]) -> None:
        """Register a conversion; the last registered wins (MLIR order)."""
        self._conversions.append(fn)

    def convert_type(self, type: Type) -> Type:
        for fn in reversed(self._conversions):
            converted = fn(type)
            if converted is not None:
                return converted
        return type


class ConversionTarget:
    """Declares op legality for a conversion."""

    def __init__(self) -> None:
        self.legal_dialects: Set[str] = set()
        self.illegal_dialects: Set[str] = set()
        self.illegal_ops: Set[str] = set()
        #: op name -> (legality, explicitly illegal) as the three sets
        #: decide it; every declaration drops it.
        self._static: Dict[str, Tuple[Optional[bool], bool]] = {}

    # -- declaration ----------------------------------------------------------

    def _declare(self, names: Set[str], new: Sequence[str]) -> "ConversionTarget":
        names.update(new)
        self._static.clear()
        return self

    def add_legal_dialect(self, *names: str) -> "ConversionTarget":
        return self._declare(self.legal_dialects, names)

    def add_illegal_dialect(self, *names: str) -> "ConversionTarget":
        return self._declare(self.illegal_dialects, names)

    def add_illegal_op(self, *names: str) -> "ConversionTarget":
        return self._declare(self.illegal_ops, names)

    # -- queries ----------------------------------------------------------------

    def _classify(self, name: str) -> Tuple[Optional[bool], bool]:
        """What the declared sets say about every op called ``name``."""
        dialect = name.split(".", 1)[0]
        if name in self.illegal_ops:
            legality: Optional[bool] = False
        elif dialect in self.legal_dialects:
            legality = True
        elif dialect in self.illegal_dialects:
            legality = False
        else:
            legality = None
        answer = self._static[name] = (
            legality,
            name in self.illegal_ops or dialect in self.illegal_dialects,
        )
        return answer

    def legality(self, op: Operation) -> Optional[bool]:
        """True = legal, False = illegal, None = unknown (kept as-is)."""
        try:
            return self._static[op.name][0]
        except KeyError:
            return self._classify(op.name)[0]

    def explicitly_illegal(self, op: Operation) -> bool:
        try:
            return self._static[op.name][1]
        except KeyError:
            return self._classify(op.name)[1]


class ConversionRewriter(PatternRewriter):
    """Pattern rewriter that materializes type-changing replacements."""

    def __init__(self, type_converter: Optional[TypeConverter]):
        super().__init__()
        self.type_converter = type_converter
        #: The pre-order index of the op :func:`apply_conversion` is
        #: converting; -1 while it legalizes what that created, when
        #: nothing is shared.
        self.position = -1
        #: ``(block, name, result types, *attributes)`` -> the shared op
        #: and the first position it stands before.
        self.shared: Dict[Tuple, Tuple[Operation, int]] = {}

    def get_or_create(self, name: str, result_types: Sequence[Type],
                      attributes: Optional[dict] = None) -> Operation:
        """The operand-free ``Pure`` op ``name`` at the insertion
        point, or its equal made or seen earlier in the same block.

        The first one made is where ``cse`` would keep it, so sharing
        moves no byte of a pipeline that ends in ``cse``. For a pattern
        whose insertion point is before the op it converts, in a
        conversion whose patterns move no op to another block: an entry
        serves the position it was made or seen at and every later one.
        The attempt's undo log restores the table on a rollback."""
        key = _share_key(self.ip.block, name, attributes, result_types)
        entry = self.shared.get(key)
        if entry is not None and entry[1] <= self.position:
            return entry[0]
        op = self.create(name, (), result_types, attributes)
        if self.position >= 0:
            if entry is None:
                _changed(dict.pop, self.shared, key, None)
            else:
                _changed(dict.__setitem__, self.shared, key, entry)
            self.shared[key] = (op, self.position)
        return op

    def materialize_cast(self, value: Value, target_type: Type,
                         before: Operation) -> Value:
        """Insert an unrealized cast of ``value`` to ``target_type``."""
        if value.type == target_type:
            return value
        self.set_insertion_point_before(before)
        cast = self.create(
            "builtin.unrealized_conversion_cast",
            operands=[value],
            result_types=[target_type],
        )
        return cast.result

    def remapped_operands(self, op: Operation) -> List[Value]:
        """Operands of ``op`` cast to their converted types.

        Mirrors the adaptor values a ConversionPattern receives in MLIR.
        """
        if self.type_converter is None:
            return op.operands
        out: List[Value] = []
        for value in op.operands:
            target = self.type_converter.convert_type(value.type)
            out.append(self.materialize_cast(value, target, op))
        return out

    def replace_op(self, op: Operation,
                   new_values: Sequence[Value]) -> None:
        """Replace, inserting casts back to original types when needed."""
        adapted: List[Value] = []
        for old_result, new_value in zip(op.results, new_values):
            if new_value.type != old_result.type and old_result.has_uses():
                # New values are defined before the op being replaced, so a
                # cast right before the op post-dominates its definition.
                self.set_insertion_point_before(op)
                cast = self.create(
                    "builtin.unrealized_conversion_cast",
                    operands=[new_value],
                    result_types=[old_result.type],
                )
                adapted.append(cast.result)
            else:
                adapted.append(new_value)
        super().replace_op(op, adapted)

    def convert_block_signature(self, block: Block) -> None:
        """Convert block argument types in place, casting for old users."""
        if self.type_converter is None:
            return
        for arg in block.args:
            new_type = self.type_converter.convert_type(arg.type)
            if new_type == arg.type:
                continue
            old_type = arg.type
            arg.set_type(new_type)
            if arg.has_uses() and block.ops:
                self.set_insertion_point_to_start(block)
                cast = self.create(
                    "builtin.unrealized_conversion_cast",
                    operands=[arg],
                    result_types=[old_type],
                )
                arg.replace_uses_where(
                    cast.result, lambda use: use.owner is not cast
                )


def _share_key(block: Block, name: str, attributes, result_types) -> Tuple:
    """What ``cse`` compares of an operand-free op, and its block."""
    return (block, name, tuple(result_types), *sorted(
        (key, str(make_attr(value)))
        for key, value in (attributes or {}).items()))


def apply_conversion(
    root: Operation,
    patterns: Sequence[RewritePattern],
    target: ConversionTarget,
    type_converter: Optional[TypeConverter] = None,
) -> None:
    """Legalize all ops under ``root`` against ``target``.

    One pre-order walk collects the illegal ops, and each is tried
    once. Each pattern tries under its own undo log: a success commits
    it, and the ops it inserted, however built, are legalized on the
    spot; a ``False`` rolls it back before the next candidate; a raise
    rolls it back and propagates. An op no pattern converted is retried
    while the previous round converted something. Raises
    :class:`ConversionError` with MLIR's wording at the first op, in
    pre-order, that is still illegal, or is legal by dialect yet
    explicitly illegal. An operand-free ``Pure`` op of a name the
    patterns generate is seen by the walk, and a pattern's
    :meth:`~ConversionRewriter.get_or_create` reuses it.
    """
    frozen = FrozenPatternSet(patterns)
    rewriter = ConversionRewriter(type_converter)
    shareable = {name for pat in patterns for name in pat.generates
                 if Pure in OP_REGISTRY.get(name, Operation).TRAITS}
    # Explicitly illegal ops whose dialect is declared legal as well:
    # no pattern runs on them, and they fail the conversion.
    both = target.legal_dialects & target.illegal_dialects
    stuck: List[Operation] = []

    def illegal(ops: Iterable[Operation], seen=False) -> List[Operation]:
        found = []
        for op in ops:
            legality = target.legality(op)
            if legality is False:
                found.append(op)
            elif legality and both and target.explicitly_illegal(op):
                stuck.append(op)
            elif seen and op.name in shareable and not op._operands:
                types = [value.type for value in op.results]
                key = _share_key(op.parent, op.name, op.attributes, types)
                rewriter.shared.setdefault(key, (op, len(found)))
        return found

    def convert(op: Operation) -> Optional[List[Operation]]:
        """The ops the first pattern to convert ``op`` created, or None."""
        for pat in frozen.for_op_name(op.name):
            rewriter.set_insertion_point_before(op)
            with UndoLog() as attempt:
                if pat.match_and_rewrite(op, rewriter):
                    attempt.commit()
                    return attempt.inserted()
                attempt.rollback()
        return None

    pending = illegal(islice(root.walk(), 1, None), seen=True)
    for _ in range(_MAX_ITERATIONS):
        failed = []
        converted = False
        for index, first in enumerate(pending):
            # ``first``, then what its conversion created, depth first.
            stack = [(first, 0)]
            while stack:
                op, depth = stack.pop()
                if op.parent is None:
                    continue
                rewriter.position = -1 if depth else index
                created = convert(op) if depth <= _MAX_ITERATIONS else None
                if created is None:
                    failed.append(op)
                    continue
                converted = True
                stack += [(new, depth + 1)
                          for new in reversed(illegal(created))]
        if not converted or not failed:
            break
        # A retried op stands before ops converted after it.
        rewriter.shared.clear()
        pending = failed

    left = {*failed, *stuck}
    if left:
        for op in islice(root.walk(), 1, None):
            if op in left:
                raise ConversionError(
                    f"failed to legalize operation '{op.name}' that was "
                    "explicitly marked illegal",
                    op,
                )
