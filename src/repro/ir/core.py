"""Core IR objects: values, operations, blocks and regions.

The design mirrors MLIR's in-memory IR:

* an :class:`Operation` has operands (SSA values), results, attributes,
  nested regions and (for terminators) successor blocks;
* a :class:`Block` has block arguments and a sequence of operations;
* a :class:`Region` has a list of blocks and belongs to an operation;
* every :class:`Value` (an :class:`OpResult` or a :class:`BlockArgument`)
  tracks its uses, enabling ``replace_all_uses_with`` and def-use
  traversal.

Operations are *registered*: dialects associate op names with subclasses
of :class:`Operation` carrying verifiers, traits and convenience
accessors. Unregistered names instantiate the generic base class, exactly
like MLIR's unregistered operations.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type as PyType,
)

from .attributes import Attribute, AttrLike, attr as make_attr
from .location import Location, UNKNOWN_LOC
from .types import Type

# ---------------------------------------------------------------------------
# The one mutation hook: the undo log
# ---------------------------------------------------------------------------


class _Journal(threading.local):
    #: The entries of the innermost :class:`UndoLog` open on this
    #: thread, or None: ``(inverse, args)`` pairs, oldest first.
    log: Optional[list] = None


#: Per thread: in-process jobs run on dispatch threads, side by side.
JOURNAL = _Journal()


def _changed(inverse: Callable, *args) -> None:
    """Every IR write calls this, and nothing outside this module
    writes an IR field. While an undo log is open on this thread,
    ``inverse(*args)`` is logged: it undoes the write once every later
    one is undone."""
    log = JOURNAL.log
    if log is not None:
        log.append((inverse, args))


class TransactionError(RuntimeError):
    """Misuse of an :class:`UndoLog` (double commit/rollback, or one
    finished while a log it encloses is open)."""


class UndoLog:
    """The inverses of this thread's IR writes while it is open.

    Logs nest and finish innermost first: a commit hands the entries
    to the enclosing log, or drops them; a rollback replays them
    backwards, so every op keeps its identity and an erased one is
    relinked. As a context manager it commits on success and rolls
    back on an exception.
    """

    def __init__(self) -> None:
        self._outer = JOURNAL.log
        self._entries: list = []
        self._open = True
        JOURNAL.log = self._entries

    def _close(self, log: Optional[list]) -> list:
        """Finish this log and open ``log`` on the thread."""
        if not self._open or JOURNAL.log is not self._entries:
            raise TransactionError("transaction already finished, or a "
                                   "nested one is still open")
        self._open = False
        JOURNAL.log = log
        return self._entries

    def commit(self) -> None:
        """Keep the writes; the enclosing log, if any, can undo them."""
        entries = self._close(self._outer)
        if self._outer is not None:
            self._outer.extend(entries)

    def rollback(self) -> None:
        """Undo every write since the log opened."""
        # An inverse is a write itself: replay with no log open.
        entries = self._close(None)
        try:
            for inverse, args in reversed(entries):
                inverse(*args)
        finally:
            JOURNAL.log = self._outer

    def inserted(self) -> List["Operation"]:
        """After a commit, the ops the logged writes inserted that are
        still in the block they were inserted into, in insertion order.
        An op built into a new op's region is logged like any other."""
        return list(dict.fromkeys(
            args[1] for inverse, args in self._entries
            if inverse is Block.remove and args[1].parent is args[0]))

    def __enter__(self) -> "UndoLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._open:
            (self.commit if exc_type is None else self.rollback)()


def _unset(use: "OpOperand", old: "Value", index: int) -> None:
    """Inverse of :meth:`OpOperand.set`."""
    use._value._uses.pop()
    use._value = old
    old._uses.insert(index, use)


# ---------------------------------------------------------------------------
# Values and use-def chains
# ---------------------------------------------------------------------------


class OpOperand:
    """A single use of a value by an operation (use-def chain link)."""

    __slots__ = ("owner", "index", "_value")

    def __init__(self, owner: "Operation", index: int, value: "Value"):
        self.owner = owner
        self.index = index
        self._value = value
        value._uses.append(self)

    @property
    def value(self) -> "Value":
        return self._value

    def set(self, new_value: "Value") -> None:
        """Repoint this operand at ``new_value``, updating use lists."""
        old = self._value
        index = old._uses.index(self)
        del old._uses[index]
        self._value = new_value
        new_value._uses.append(self)
        _changed(_unset, self, old, index)

    def drop(self) -> None:
        """Remove this use from its value's use list."""
        uses = self._value._uses
        index = uses.index(self)
        del uses[index]
        _changed(list.insert, uses, index, self)


class Value:
    """Base class for SSA values."""

    __slots__ = ("type", "_uses")

    def __init__(self, type: Type):
        self.type = type
        self._uses: List[OpOperand] = []

    @property
    def uses(self) -> List[OpOperand]:
        """A snapshot of the current uses of this value."""
        return list(self._uses)

    @property
    def users(self) -> List["Operation"]:
        """Operations using this value (duplicates removed, order kept)."""
        seen: Dict[int, None] = {}
        out = []
        for use in self._uses:
            if id(use.owner) not in seen:
                seen[id(use.owner)] = None
                out.append(use.owner)
        return out

    def has_uses(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, other: "Value") -> None:
        """Redirect every use of this value to ``other``."""
        if other is self:
            return
        for use in list(self._uses):
            use.set(other)

    def replace_uses_where(
        self, other: "Value", predicate: Callable[[OpOperand], bool]
    ) -> None:
        """Redirect uses matching ``predicate`` to ``other``."""
        for use in list(self._uses):
            if predicate(use):
                use.set(other)

    @property
    def owner(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def defining_op(self) -> Optional["Operation"]:
        """The operation defining this value, or None for block arguments."""
        return None


class OpResult(Value):
    """A result value produced by an operation.

    ``op`` is None once the op is erased (:meth:`Operation.erase`), so
    the op and its results form no cycle and are freed by reference
    counting: an erased op's result has no owner and no defining op.
    """

    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, type: Type):
        super().__init__(type)
        self.op: Optional[Operation] = op
        self.index = index

    @property
    def owner(self) -> Optional["Operation"]:
        return self.op

    def defining_op(self) -> Optional["Operation"]:
        return self.op

    def __repr__(self) -> str:
        owner = "an erased op" if self.op is None else self.op.name
        return f"<OpResult #{self.index} of {owner}>"


class BlockArgument(Value):
    """An argument of a block (e.g. a loop induction variable)."""

    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, type: Type):
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def set_type(self, type: Type) -> None:
        old = self.type
        self.type = type
        _changed(setattr, self, "type", old)

    def __repr__(self) -> str:
        return f"<BlockArgument #{self.index}>"


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

#: Global registry mapping fully qualified op names to registered classes.
OP_REGISTRY: Dict[str, PyType["Operation"]] = {}


def register_op(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Class decorator registering an operation class by its ``NAME``."""
    name = getattr(cls, "NAME", None)
    if not name:
        raise ValueError(f"{cls.__name__} lacks a NAME class attribute")
    OP_REGISTRY[name] = cls
    return cls


# ---------------------------------------------------------------------------
# Traits (structural invariants checked by the verifier)
# ---------------------------------------------------------------------------


class Trait:
    """Marker base for operation traits."""


class IsTerminator(Trait):
    """The operation must be the last one in its block."""


class NoTerminator(Trait):
    """Blocks of this op's regions need no terminator."""


class SingleBlock(Trait):
    """Each region of the operation holds at most one block."""


class IsolatedFromAbove(Trait):
    """Regions may not reference values defined outside the operation."""


class SymbolTableTrait(Trait):
    """The operation's region defines a symbol table (e.g. a module)."""


class SymbolTrait(Trait):
    """The operation defines a symbol (has a ``sym_name`` attribute)."""


class Pure(Trait):
    """The operation has no side effects (eligible for CSE/DCE/hoisting)."""


class Commutative(Trait):
    """Binary operation whose operands may be swapped."""


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------

OperandLike = Value
AttrsLike = Optional[Dict[str, AttrLike]]


def _children(op: "Operation") -> Iterator["Operation"]:
    """The ops directly inside ``op``, for :meth:`Operation.walk`: lazy,
    and each block's ops are copied when the iteration reaches it."""
    return (child for region in op.regions for block in region.blocks
            for child in list(block.ops))


def _children_reversed(op: "Operation") -> Iterator["Operation"]:
    return (child for region in reversed(op.regions)
            for block in reversed(region.blocks)
            for child in reversed(block.ops))


class Operation:
    """A generic IR operation.

    Instances are created through :meth:`Operation.create`, which
    dispatches to the registered subclass when one exists for the name.
    """

    #: Fully qualified name; overridden by registered subclasses.
    NAME: str = ""
    #: Structural traits checked by the verifier.
    TRAITS: frozenset = frozenset()

    def __init__(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: AttrsLike = None,
        regions: int = 0,
        successors: Sequence["Block"] = (),
        location: Location = UNKNOWN_LOC,
    ):
        self.name = name
        self.location = location
        self.parent: Optional[Block] = None
        # Sibling links and order index, owned by ``parent``'s mutators.
        self._prev: Optional[Operation] = None
        self._next: Optional[Operation] = None
        self._order = 0
        # Fixed after construction, so tuples; an empty field (leaf
        # ops, constants, terminators) is the shared ``()`` and costs no
        # comprehension frame.
        self._operands: Tuple[OpOperand, ...] = ()
        if operands:
            self._operands = tuple([
                OpOperand(self, i, v) for i, v in enumerate(operands)])
            # Undone: the new op lets go of its operands' use lists.
            _changed(Operation.drop_all_references, self)
        self.results: Tuple[OpResult, ...] = tuple([
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]) if result_types else ()
        self.attributes: Dict[str, Attribute] = {
            k: make_attr(v) for k, v in attributes.items()
        } if attributes else {}
        self.regions: Tuple[Region, ...] = tuple([
            Region(self) for _ in range(regions)
        ]) if regions else ()
        self.successors: Tuple[Block, ...] = tuple(successors)

    # -- creation ----------------------------------------------------------

    @staticmethod
    def create(
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: AttrsLike = None,
        regions: int = 0,
        successors: Sequence["Block"] = (),
        location: Location = UNKNOWN_LOC,
    ) -> "Operation":
        """Create an operation, using the registered class if present."""
        cls = OP_REGISTRY.get(name, Operation)
        op = object.__new__(cls)
        Operation.__init__(
            op, name, operands, result_types, attributes, regions, successors,
            location,
        )
        return op

    # -- operands ----------------------------------------------------------

    @property
    def operands(self) -> List[Value]:
        return [o.value for o in self._operands]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index].value

    def set_operand(self, index: int, value: Value) -> None:
        self._operands[index].set(value)

    # -- results / attributes ------------------------------------------------

    @property
    def result(self) -> OpResult:
        """The single result (raises if the op does not have exactly one)."""
        if len(self.results) != 1:
            raise ValueError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    def attr(self, name: str, default=None) -> Optional[Attribute]:
        return self.attributes.get(name, default)

    def set_attr(self, name: str, value: AttrLike) -> None:
        # Copied on write: the inverse reinstates the old dict.
        old = self.attributes
        self.attributes = {**old, name: make_attr(value)}
        _changed(setattr, self, "attributes", old)

    def has_trait(self, trait: PyType[Trait]) -> bool:
        return trait in type(self).TRAITS

    # -- structure ---------------------------------------------------------

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None or self.parent.parent is None:
            return None
        return self.parent.parent.parent

    def is_ancestor_of(self, other: "Operation") -> bool:
        """True if ``other`` is nested within this op (or is this op)."""
        node: Optional[Operation] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent_op
        return False

    def is_before_in_block(self, other: "Operation") -> bool:
        block = self.parent
        if block is None or block is not other.parent:
            raise ValueError("operations are not in the same block")
        if not block._ordered:
            block._recompute_op_order()
        return self._order < other._order

    @property
    def prev_op(self) -> Optional["Operation"]:
        """The op before this one in its block (None at the head)."""
        return self._prev

    @property
    def next_op(self) -> Optional["Operation"]:
        """The op after this one in its block (None at the tail)."""
        return self._next

    # -- mutation ----------------------------------------------------------

    def drop_all_references(self) -> None:
        """Drop all operand uses of this op and ops nested within it."""
        for operand in self._operands:
            operand.drop()
        if self._operands:
            _changed(setattr, self, "_operands", self._operands)
            self._operands = ()
        for region in self.regions:
            for block in region.blocks:
                for op in block.ops:
                    op.drop_all_references()

    def erase(self) -> None:
        """Remove this op from its block and sever all def-use links.

        The op must have no remaining uses of its results. Its results
        let go of it (``OpResult.op`` becomes None), so an erased leaf op
        is freed as soon as nothing holds it; while held it still reads
        its name, attributes, location and typed results.
        """
        for result in self.results:
            if result.has_uses():
                raise ValueError(
                    f"erasing {self.name} whose result still has uses"
                )
        self.drop_all_references()
        if self.parent is not None:
            self.parent.remove(self)
        for result in self.results:
            result.op = None
            _changed(setattr, result, "op", self)

    def destroy(self) -> None:
        """Free this dead op tree now rather than at the next full
        garbage collection.

        The IR is cyclic throughout (op <-> result, value <-> use,
        block <-> argument, region <-> block), so dropping the last
        reference to a module frees nothing until the collector's
        oldest generation runs, and a process compiling module after
        module carries several dead ones at its memory peak. Only for
        a tree nothing will read again: every op in it is left an
        empty shell, and values defined outside it keep stale uses.
        """
        for op in list(self.walk()):
            for result in op.results:
                result._uses = []
            for region in op.regions:
                for block in region.blocks:
                    for arg in block.args:
                        arg._uses = []
                    block.__dict__.clear()
            op.__dict__.clear()

    def replace_all_uses_with(self, new_values: Sequence[Value]) -> None:
        if len(new_values) != len(self.results):
            raise ValueError("replacement value count mismatch")
        for result, new in zip(self.results, new_values):
            result.replace_all_uses_with(new)

    def move_before(self, other: "Operation") -> None:
        """Make this op the one before ``other`` (itself: no change)."""
        if other.parent is None:
            raise ValueError("anchor operation is not in a block")
        other.parent.insert_before(other, self)

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation (and nested regions).

        ``value_map`` maps old values to new ones; operands found in the
        map are remapped, others are reused as-is. The map is extended
        with this op's results and all nested block arguments/results.
        """
        if value_map is None:
            value_map = {}
        new_op = Operation.create(
            self.name,
            operands=[value_map.get(v, v) for v in self.operands],
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            regions=len(self.regions),
            successors=self.successors,
            location=self.location,
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
        for old_region, new_region in zip(self.regions, new_op.regions):
            old_region.clone_into(new_region, value_map)
        return new_op

    # -- traversal ----------------------------------------------------------

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Pre-order traversal of this op and everything nested in it.

        One generator over an explicit stack of child iterators, so a
        deep op costs no chain of ``yield from`` frames. Mutation
        tolerance: an op's regions are read after the consumer is done
        with the op, and a block's ops are snapshotted when the walk
        reaches the block — ops inserted into a block already reached
        are not visited, ops erased from it still are (``parent`` is
        None by then).
        """
        yield self
        children = _children_reversed if reverse else _children
        stack = [children(self)]
        while stack:
            for op in stack[-1]:
                yield op
                if op.regions:
                    stack.append(children(op))
                    break
            else:
                stack.pop()

    def walk_ops(self, name: str) -> Iterator["Operation"]:
        """Walk, yielding only ops with the given name."""
        for op in self.walk():
            if op.name == name:
                yield op

    # -- verification --------------------------------------------------------

    def verify(self) -> None:
        """Verify this op and all nested ops; raises ValueError on failure."""
        self._verify_traits()
        self.verify_op()
        for region in self.regions:
            for block in region.blocks:
                for i, op in enumerate(block.ops):
                    if op.parent is not block:
                        raise ValueError(
                            f"{op.name}: inconsistent parent pointer"
                        )
                    op.verify()

    def verify_op(self) -> None:
        """Op-specific verification; overridden by registered classes."""

    def _verify_traits(self) -> None:
        traits = type(self).TRAITS
        if IsTerminator in traits and self.parent is not None:
            if self.parent._last is not self:
                raise ValueError(f"terminator {self.name} not last in block")
        if SingleBlock in traits:
            for region in self.regions:
                if len(region.blocks) > 1:
                    raise ValueError(f"{self.name}: region has multiple blocks")
        if SymbolTrait in traits and "sym_name" not in self.attributes:
            raise ValueError(f"{self.name}: symbol op lacks sym_name")

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        from .printer import print_op

        return print_op(self)

    def __repr__(self) -> str:
        return f"<Operation {self.name}>"


# ---------------------------------------------------------------------------
# Block and Region
# ---------------------------------------------------------------------------


class Block:
    """A sequence of operations with block arguments.

    The operations form an intrusive doubly linked list (``_first`` /
    ``_last`` here, ``_prev`` / ``_next`` on each op), so every mutator
    touches O(1) nodes however large the block. :attr:`ops` is the one
    read surface: a list memo of the linked order that ``append`` and
    removing the last op keep current, that every other mutator drops,
    and that the next read rebuilds.
    """

    def __init__(self, arg_types: Sequence[Type] = ()):
        self.args: List[BlockArgument] = [
            BlockArgument(self, i, t) for i, t in enumerate(arg_types)
        ]
        self.parent: Optional[Region] = None
        self._first: Optional[Operation] = None
        self._last: Optional[Operation] = None
        #: Memo behind :attr:`ops`; None once the links moved under it.
        self._ops: Optional[List[Operation]] = []
        #: Whether ``_order`` rises along the links (appends and
        #: removals keep it so; see :meth:`_recompute_op_order`).
        self._ordered = True

    # -- arguments -----------------------------------------------------------

    def add_arg(self, type: Type) -> BlockArgument:
        arg = BlockArgument(self, len(self.args), type)
        self.args.append(arg)
        _changed(list.pop, self.args)
        return arg

    def set_args(self, args: Sequence[BlockArgument]) -> None:
        old = self.args
        self.args = list(args)
        _changed(setattr, self, "args", old)

    # -- op list -------------------------------------------------------------

    @property
    def ops(self) -> List[Operation]:
        """The operations in order, as a list to read, never to mutate.

        A list taken before a mutation is not updated by it, except
        that an ``append`` shows and a removed last op goes: a loop over
        ``block.ops`` that erases the op it stands on skips no sibling.
        """
        ops = self._ops
        if ops is None:
            ops = self._ops = []
            op = self._first
            while op is not None:
                ops.append(op)
                op = op._next
        return ops

    def append(self, op: Operation) -> Operation:
        if op.parent is not None:
            op.parent.remove(op)
        last = self._last
        op.parent = self
        op._prev = last
        if last is None:
            self._first = op
        else:
            last._next = op
            op._order = last._order + 1
        self._last = op
        if self._ops is not None:
            self._ops.append(op)
        _changed(Block.remove, self, op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        """``list.insert`` semantics: negative indices count from the
        end, out-of-range ones clamp, and an ``op`` already in this
        block leaves it before ``index`` is looked up."""
        if op.parent is not None:
            op.parent.remove(op)
        ops = self.ops
        if index < 0:
            index = max(index + len(ops), 0)
        return self.insert_before(ops[index] if index < len(ops) else None,
                                  op)

    def insert_before(self, anchor: Optional[Operation],
                      op: Operation) -> Operation:
        """Make ``op`` the op before ``anchor``, or the last one when
        ``anchor`` is None, from wherever it was (``anchor`` itself: no
        change)."""
        if anchor is None:
            return self.append(op)
        if anchor.parent is not self:
            raise ValueError("anchor operation is not in this block")
        if op is anchor:
            return op
        if op.parent is not None:
            op.parent.remove(op)
        prev = anchor._prev
        op.parent = self
        op._prev = prev
        op._next = anchor
        anchor._prev = op
        if prev is None:
            self._first = op
        else:
            prev._next = op
        self._ops = None
        self._ordered = False
        _changed(Block.remove, self, op)
        return op

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        """Make ``op`` the op after ``anchor`` (itself: no change)."""
        if anchor.parent is not self:
            raise ValueError("anchor operation is not in this block")
        if op is anchor:
            return op
        return self.insert_before(anchor._next, op)

    def remove(self, op: Operation) -> None:
        if op.parent is not self:
            raise ValueError("operation is not in this block")
        prev, following = op._prev, op._next
        if prev is None:
            self._first = following
        else:
            prev._next = following
        if following is None:
            self._last = prev
            if self._ops is not None:
                self._ops.pop()
        else:
            following._prev = prev
            self._ops = None
        op.parent = op._prev = op._next = None
        _changed(Block.insert_before, self, following, op)

    def _recompute_op_order(self) -> None:
        """Renumber ``_order`` along the links: done by the first
        :meth:`Operation.is_before_in_block` after an insertion."""
        for index, op in enumerate(self.ops):
            op._order = index
        self._ordered = True

    @property
    def terminator(self) -> Optional[Operation]:
        last = self._last
        if last is not None and last.has_trait(IsTerminator):
            return last
        return None

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(list(self.ops))

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"<Block with {len(self.ops)} ops>"


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, parent: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent = parent

    def add_block(self, block: Optional[Block] = None) -> Block:
        return self.insert_block(len(self.blocks),
                                 Block() if block is None else block)

    def insert_block(self, index: int, block: Block) -> Block:
        """Make ``block``, in no region, the ``index``-th of this one."""
        block.parent = self
        self.blocks.insert(index, block)
        _changed(Region.remove_block, self, block)
        return block

    def remove_block(self, block: Block) -> None:
        index = self.blocks.index(block)
        del self.blocks[index]
        block.parent = None
        _changed(Region.insert_block, self, index, block)

    @property
    def entry_block(self) -> Block:
        if not self.blocks:
            raise ValueError("region has no blocks")
        return self.blocks[0]

    @property
    def is_empty(self) -> bool:
        return all(b._first is None for b in self.blocks)

    def clone_into(self, dest: "Region",
                   value_map: Dict[Value, Value]) -> None:
        """Clone all blocks of this region into ``dest`` (assumed empty)."""
        # First create all blocks and their arguments so branch successors
        # and forward references can be remapped.
        block_map: Dict[Block, Block] = {}
        for block in self.blocks:
            new_block = Block([a.type for a in block.args])
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
            dest.add_block(new_block)
            block_map[block] = new_block
        for block in self.blocks:
            new_block = block_map[block]
            for op in block.ops:
                new_op = op.clone(value_map)
                if new_op.successors:
                    new_op.successors = tuple([
                        block_map.get(s, s) for s in new_op.successors])
                new_block.append(new_op)

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            for op in list(block.ops):
                yield from op.walk()

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"<Region with {len(self.blocks)} blocks>"
