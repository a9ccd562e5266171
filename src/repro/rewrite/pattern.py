"""Rewrite patterns and the pattern rewriter.

A :class:`RewritePattern` matches a single operation and rewrites it
through a :class:`PatternRewriter`. All IR mutations go through the
rewriter so that listeners observe every replacement/erasure — this is
the event stream the transform-dialect interpreter subscribes to in
order to keep handles valid across pattern application (paper §3.1).
"""

from __future__ import annotations

from typing import Callable, Collection, FrozenSet, List, Sequence, Union

from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value


class RewriteListener:
    """Receives notifications about IR mutations performed by a rewriter."""

    def notify_op_inserted(self, op: Operation) -> None:
        """Called after ``op`` is inserted into a block."""

    def notify_op_replaced(self, op: Operation,
                           new_values: Sequence[Value]) -> None:
        """Called when ``op``'s results are about to be replaced."""

    def notify_op_replaced_with_op(self, op: Operation,
                                   new_op: Operation) -> None:
        """Called when ``op`` is replaced by a single new operation.

        Fires in addition to :meth:`notify_op_replaced`; it carries the
        replacement *operation* so zero-result ops remain trackable.
        """

    def notify_op_erased(self, op: Operation) -> None:
        """Called just before ``op`` is erased."""

    def notify_op_modified(self, op: Operation) -> None:
        """Called after an in-place modification of ``op``."""


class PatternRewriter(Builder):
    """A builder that additionally replaces and erases operations.

    Mutations are reported to all attached listeners; the greedy driver
    and the transform interpreter both listen.
    """

    def __init__(self, listeners: Sequence[RewriteListener] = ()):
        super().__init__(None)
        self.listeners: List[RewriteListener] = list(listeners)

    # -- builder overrides ----------------------------------------------------

    def insert(self, op: Operation) -> Operation:
        result = super().insert(op)
        for listener in self.listeners:
            listener.notify_op_inserted(op)
        return result

    # -- mutation API ----------------------------------------------------------

    def erase_op(self, op: Operation) -> None:
        """Erase ``op``; its results must be unused."""
        for listener in self.listeners:
            listener.notify_op_erased(op)
        op.erase()

    def replace_op(self, op: Operation,
                   new_values: Sequence[Value]) -> None:
        """Replace all of ``op``'s results with ``new_values``, erase it."""
        for listener in self.listeners:
            listener.notify_op_replaced(op, new_values)
        op.replace_all_uses_with(list(new_values))
        for listener in self.listeners:
            listener.notify_op_erased(op)
        op.erase()

    def replace_op_with(self, op: Operation, name: str, **kwargs) -> Operation:
        """Create a new op before ``op`` and replace ``op`` with it."""
        self.set_insertion_point_before(op)
        new_op = self.create(name, **kwargs)
        for listener in self.listeners:
            listener.notify_op_replaced_with_op(op, new_op)
        self.replace_op(op, new_op.results)
        return new_op

    def modify_op_in_place(self, op: Operation,
                           mutation: Callable[[], None]) -> None:
        """Run ``mutation``, which writes through the mutators of
        :mod:`repro.ir.core`, and tell the listeners ``op`` changed, and
        the definers of the operands it dropped: they lost a use."""
        before = op.operands
        mutation()
        after = op.operands
        for changed in (op, *(value.defining_op() for value in before
                              if value not in after)):
            if changed is not None:
                for listener in self.listeners:
                    listener.notify_op_modified(changed)

    def inline_block_before(self, block: Block, anchor: Operation) -> None:
        """Move the ops of ``block``, which has no arguments, before
        ``anchor``."""
        if block.args:
            raise ValueError("inline_block_before: argument count mismatch")
        target = anchor.parent
        assert target is not None
        for op in list(block.ops):
            target.insert_before(anchor, op)
            for listener in self.listeners:
                listener.notify_op_inserted(op)


#: What a pattern anchors on: an op name, a collection of op names, a
#: dialect spelled ``"dialect.*"``, or None for any op.
Root = Union[None, str, Collection[str]]


class RewritePattern:
    """Base class of rewrite patterns.

    ``root_name`` restricts matching to the ops it names (see
    :data:`Root`); higher ``benefit`` patterns are tried first.
    """

    #: The ops this pattern anchors on.
    root_name: Root = None
    #: The op names a successful rewrite may insert (upstream's
    #: ``generatedNames``).
    generates: FrozenSet[str] = frozenset()
    #: Relative priority among applicable patterns.
    benefit: int = 1
    #: Human-readable name used in transform scripts and debugging.
    label: str = ""

    def __init__(self) -> None:
        if not self.label:
            self.label = type(self).__name__

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        """Try to rewrite ``op``; return True when a rewrite happened."""
        raise NotImplementedError

    def roots_at(self, name: str) -> bool:
        """Whether an op called ``name`` is one this pattern anchors on."""
        root = self.root_name
        if root is None:
            return True
        if isinstance(root, str):
            return name == root or (
                root.endswith(".*") and name.startswith(root[:-1]))
        return name in root

    def __repr__(self) -> str:
        return f"<pattern {self.label}>"


class _FunctionPattern(RewritePattern):
    """Wraps a plain function as a pattern (see :func:`pattern`)."""

    def __init__(self, fn: Callable[[Operation, PatternRewriter], bool],
                 root_name: Root, benefit: int, label: str,
                 generates: Collection[str]):
        self.root_name = root_name
        self.generates = frozenset(generates)
        self.benefit = benefit
        self.label = label or fn.__name__
        self._fn = fn
        super().__init__()

    def match_and_rewrite(self, op: Operation,
                          rewriter: PatternRewriter) -> bool:
        return self._fn(op, rewriter)


def pattern(root_name: Root = None, benefit: int = 1,
            label: str = "", generates: Collection[str] = ()):
    """Decorator turning ``fn(op, rewriter) -> bool`` into a pattern.

    .. code-block:: python

        @pattern("arith.addi")
        def fold_add_zero(op, rewriter):
            ...
    """

    def decorate(fn: Callable[[Operation, PatternRewriter], bool]):
        return _FunctionPattern(fn, root_name, benefit, label, generates)

    return decorate
