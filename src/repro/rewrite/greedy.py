"""The greedy pattern rewrite driver.

Applies a set of patterns to all operations nested under a root until a
fixed point is reached, mirroring MLIR's
``applyPatternsAndFoldGreedily``. The driver is worklist-based: a
single initial walk seeds a deduplicating worklist with the ops a
pattern roots at and the trivially dead ones, and rewrites push only
the operations they inserted, modified or exposed — the payload tree
is never re-walked. Trivially dead pure ops are folded away when they
are popped, exactly like MLIR's driver, so erasures cascade along
def-use chains instead of triggering whole-tree sweeps.

Patterns are resolved per op name and benefit-sorted **once** via
:class:`FrozenPatternSet`; pass a pre-frozen set when the same patterns
drive many roots (the ``canonicalize`` pass and
``transform.apply_patterns`` do).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..ir.core import Operation, Pure
from .pattern import PatternRewriter, RewriteListener, RewritePattern


@dataclass
class GreedyRewriteConfig:
    """Bounds for the fixpoint iteration."""

    #: Hard cap on individual rewrites, guarding against ping-ponging
    #: pattern pairs.
    max_rewrites: int = 100_000
    #: Debugging escape hatch: re-raise pattern exceptions raw instead
    #: of wrapping them in :class:`PatternApplicationError`.
    strict: bool = False


class PatternApplicationError(RuntimeError):
    """A pattern rewrite crashed with an arbitrary Python exception.

    The driver's exception barrier wraps the crash so callers get a
    structured error naming the pattern and the matched operation
    instead of a raw traceback deep inside rewrite code; the transform
    interpreter's own barrier converts it into a *definite* failure
    with a transform-stack backtrace. The original exception is
    chained as ``__cause__`` (and kept in :attr:`cause`).
    """

    def __init__(self, pattern: RewritePattern, op: Operation,
                 cause: BaseException):
        super().__init__(
            f"pattern '{pattern.label}' crashed on '{op.name}' at "
            f"{op.location}: {type(cause).__name__}: {cause}"
        )
        self.pattern = pattern
        self.op = op
        self.cause = cause


class FrozenPatternSet:
    """Patterns resolved per op name, benefit-sorted up front.

    The first lookup of a name keeps the patterns that root at it
    (:meth:`RewritePattern.roots_at`) and caches them, so the driver's
    per-op lookup is a dict probe. Among equal benefits, patterns rooted
    at op names come before dialect-rooted ones, and those before
    generic ones, each kind in the order given.
    """

    def __init__(self, patterns: Sequence[RewritePattern]):
        def rank(pat: RewritePattern) -> Tuple[int, int]:
            root = pat.root_name
            kind = 2 if root is None else int(
                isinstance(root, str) and root.endswith(".*"))
            return -pat.benefit, kind

        self._patterns = sorted(patterns, key=rank)
        self._by_name: Dict[str, List[RewritePattern]] = {}

    def for_op_name(self, name: str) -> List[RewritePattern]:
        try:
            return self._by_name[name]
        except KeyError:
            found = self._by_name[name] = [
                pat for pat in self._patterns if pat.roots_at(name)]
            return found


class _Worklist:
    """LIFO worklist with O(1) dedup.

    Membership is keyed by ``id``; that is safe because the stack holds
    a strong reference to every member, so an id cannot be recycled
    while it is still in the membership set.
    """

    __slots__ = ("_stack", "_members")

    def __init__(self) -> None:
        self._stack: List[Operation] = []
        self._members: Set[int] = set()

    def push(self, op: Operation) -> bool:
        if id(op) in self._members:
            return False
        self._members.add(id(op))
        self._stack.append(op)
        return True

    def pop(self) -> Operation:
        op = self._stack.pop()
        self._members.discard(id(op))
        return op

    def __len__(self) -> int:
        return len(self._stack)

    def __bool__(self) -> bool:
        return bool(self._stack)


class _WorklistListener(RewriteListener):
    """Feeds the driver worklist from the rewriter's event stream."""

    def __init__(self, worklist: _Worklist, profiler=None) -> None:
        self.worklist = worklist
        self.profiler = profiler
        #: Erased ops, held by strong reference: keeping the objects
        #: alive guarantees their ids are never recycled onto fresh
        #: ops, which a bare id() set silently skipped under GC.
        self.erased: Set[Operation] = set()

    def _push(self, op: Operation) -> None:
        if op in self.erased:
            return
        if self.worklist.push(op) and self.profiler is not None:
            self.profiler.record_worklist_push(len(self.worklist))

    def notify_op_inserted(self, op: Operation) -> None:
        # Region-carrying ops may arrive with pre-built bodies whose
        # nested ops never produce their own insertion events.
        for nested in op.walk():
            self._push(nested)

    def notify_op_modified(self, op: Operation) -> None:
        self._push(op)

    def notify_op_replaced(self, op: Operation, new_values) -> None:
        # The users of the old results are about to have their operands
        # repointed — they are modified ops in all but name.
        for result in op.results:
            for user in result.users:
                self._push(user)

    def notify_op_erased(self, op: Operation) -> None:
        self.erased.add(op)
        # Erasing a use may leave the defining ops trivially dead, and
        # the uses nested in the op's regions go with it.
        for nested in op.walk():
            for operand in nested.operands:
                defining = operand.defining_op()
                if defining is not None:
                    self._push(defining)


def _is_attached(op: Operation, root: Operation) -> bool:
    """True while ``op`` is still in the tree under ``root``."""
    node: Optional[Operation] = op
    while node is not None:
        if node is root:
            return True
        node = node.parent_op
    return False


def _is_trivially_dead(op: Operation) -> bool:
    if Pure not in type(op).TRAITS or not op.results:
        return False
    for result in op.results:
        if result._uses:
            return False
    return True


def apply_patterns_greedily(
    root: Operation,
    patterns: Union[Sequence[RewritePattern], FrozenPatternSet],
    config: Optional[GreedyRewriteConfig] = None,
    extra_listeners: Sequence[RewriteListener] = (),
    profiler=None,
) -> bool:
    """Apply ``patterns`` under ``root`` until fixpoint.

    Returns True when the IR changed. The root op itself is not matched
    (it anchors the traversal), matching MLIR's driver. ``patterns``
    may be a plain sequence or a pre-built :class:`FrozenPatternSet`;
    ``profiler`` (a :class:`repro.profiling.Profiler`) records
    per-pattern timing and worklist traffic when given.
    """
    config = config or GreedyRewriteConfig()
    frozen = (
        patterns if isinstance(patterns, FrozenPatternSet)
        else FrozenPatternSet(patterns)
    )

    worklist = _Worklist()
    listener = _WorklistListener(worklist, profiler)
    rewriter = PatternRewriter([listener, *extra_listeners])
    if profiler is not None:
        profiler.record_driver_run()

    # Single seeding walk, pushed in pre-order: the LIFO pops bottom-up,
    # so uses are visited before their defs and dead chains fold fast.
    # An op no pattern roots at has nothing to do here unless it is
    # dead, and a rewrite that kills it pushes it.
    for op in root.walk():
        if op is not root and (
                frozen.for_op_name(op.name) or _is_trivially_dead(op)):
            worklist.push(op)
    if profiler is not None:
        profiler.record_worklist_seed(len(worklist))

    changed_any = False
    rewrites = 0
    while worklist:
        op = worklist.pop()
        if profiler is not None:
            profiler.record_worklist_pop()
        if op in listener.erased or not _is_attached(op, root):
            continue
        # Fold trivially dead pure ops on pop (MLIR's driver does the
        # same); the erase listener re-enqueues the operand definers.
        if _is_trivially_dead(op):
            rewriter.erase_op(op)
            changed_any = True
            continue
        patterns = frozen.for_op_name(op.name)
        if not patterns:
            continue
        # One insertion point per op, not per attempt: a pattern whose
        # match fails must not have created ops, so the point only
        # needs repositioning when the popped op changes.
        rewriter.set_insertion_point_before(op)
        for pat in patterns:
            start = time.perf_counter() if profiler is not None else 0.0
            try:
                matched = pat.match_and_rewrite(op, rewriter)
            except Exception as error:  # the driver's exception barrier
                if config.strict:
                    raise
                # A crashed pattern may have left the IR half-rewritten;
                # continuing to match would be unsound, so surface a
                # structured error naming the culprit instead.
                raise PatternApplicationError(pat, op, error) from error
            if profiler is not None:
                profiler.record_pattern(
                    pat.label, matched, time.perf_counter() - start
                )
            if matched:
                changed_any = True
                rewrites += 1
                if rewrites >= config.max_rewrites:
                    raise RuntimeError(
                        "greedy rewrite exceeded max_rewrites; "
                        "likely a ping-ponging pattern pair"
                    )
                break
    return changed_any
