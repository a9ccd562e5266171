"""The Transform dialect: operations controlling compiler transformations.

Transform scripts are ordinary IR: each *transform* is an operation
whose SSA results are *handles* to payload operations (or parameters).
Every transform op implements ``apply(interpreter, state)`` returning a
:class:`~repro.core.errors.TransformResult`, and *declares* on its
class everything a client needs to know without running it (see
:class:`TransformOp`; DESIGN.md "A transform op is one declaration"):
which handles it consumes (§3.1), how its results' payload relates to
its operands', how it can fail, whether it only produces handles,
whether its effect stays inside one function, and the payload op specs
it expects / introduces (§3.3). The interpreter, the static analyses,
the canonicalization patterns, the schedule builder and the compile
service read those off the op — :func:`declared` — and keep no table
of names.

Builder helpers at module level make scripts read close to the paper::

    script, root = transform.sequence()
    loop = transform.match_op(b, root, "scf.for", position="first")
    main, rest = transform.loop_split(b, loop, 32)
    outer, inner = transform.loop_tile(b, main, [32, 32])
    transform.loop_unroll(b, rest, full=True)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ir.attributes import (
    StringAttr,
    SymbolRefAttr,
    UnitAttr,
    unwrap,
)
from ..ir.builder import Builder
from ..ir.context import find_callee
from ..ir.core import (
    Block,
    IsTerminator,
    IsolatedFromAbove,
    Operation,
    Pure,
    SingleBlock,
    SymbolTrait,
    Value,
    register_op,
)
from ..rewrite.pattern import RewritePattern
from ..transforms.loop import (
    LoopTransformError,
    hoist_loop_invariants_to,
    interchange_loops,
    peel_loop,
    split_loop,
    tile_loop,
    tile_loop_nest,
    unroll_loop,
)
from ..transforms.linalg_utils import generalize_named_op, lower_linalg_to_loops
from ..transforms.microkernel import (
    MicrokernelLibrary,
    XSMM_LIBRARY,
    replace_with_library_call,
)
from .errors import TransformResult
from .state import TransformState
from .types import ANY_OP, OperationHandleType, PARAM_I64, ParamType

# ---------------------------------------------------------------------------
# Base class and registries
# ---------------------------------------------------------------------------

#: Named rewrite patterns usable inside ``transform.apply_patterns``
#: (populated by repro.enzyme and others).
TRANSFORM_PATTERN_REGISTRY: Dict[str, Callable[[], RewritePattern]] = {}


def register_transform_pattern(
    name: str, factory: Callable[[], RewritePattern]
) -> None:
    """Expose a rewrite pattern as ``transform.pattern.<name>``."""
    TRANSFORM_PATTERN_REGISTRY[name] = factory


#: Microkernel libraries addressable from ``transform.to_library``.
LIBRARY_REGISTRY: Dict[str, MicrokernelLibrary] = {"libxsmm": XSMM_LIBRARY}


class TransformOp(Operation):
    """Base class of all transform operations.

    The class attributes and the two methods below are the op's whole
    declaration. The defaults are the conservative answer for an op
    nobody declared anything about: consumes nothing it says, derives
    nothing, may fail silenceably, is not dead when unused, may reach
    across functions.
    """

    #: Operand indices whose handles this transform consumes/invalidates.
    CONSUMES: Tuple[int, ...] = ()
    #: Payload op specs expected (and removed) / introduced, when known.
    PRECONDITIONS: frozenset = frozenset()
    POSTCONDITIONS: frozenset = frozenset()
    #: How the results' payload relates to the operands': ``"nested"``
    #: (strictly inside it: consuming an operand invalidates the
    #: results), ``"subset"`` (the same ops: consuming either
    #: invalidates the other), ``"enclosing"`` (ancestors of it:
    #: consuming a result invalidates the operands) or None.
    DERIVES: Optional[str] = None
    #: ``(inner, outer)`` result index pairs: result ``inner``'s payload
    #: is strictly inside result ``outer``'s, so consuming ``outer``
    #: invalidates ``inner``.
    NESTED_RESULTS: Tuple[Tuple[int, int], ...] = ()
    #: Its only effect is producing its results (handles or params).
    RESULT_ONLY = False
    #: Its payload effect distributes over disjoint top-level functions.
    FUNCTION_LOCAL = False
    #: ``apply`` can return a silenceable failure (definite errors need
    #: no declaration: a run hitting one is not a clean run).
    MAY_FAIL_SILENCEABLY = True
    #: ``apply`` fails unconditionally; code after it is dead.
    ALWAYS_FAILS = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        raise NotImplementedError(f"{self.name} has no interpreter rule")

    def may_fail_silenceably(self) -> bool:
        """Can this op, with its attributes and regions, produce a
        silenceable failure?"""
        return self.MAY_FAIL_SILENCEABLY

    def is_function_local(self) -> bool:
        """Does this op, with its attributes, stay inside each
        top-level function of the payload?"""
        return self.FUNCTION_LOCAL

    # -- helpers shared by transform ops -----------------------------------

    def _str_attr(self, name: str, default: str = "") -> str:
        attr = self.attr(name)
        if isinstance(attr, StringAttr):
            return attr.value
        return default

    def _int_list_attr(self, name: str) -> Optional[List[int]]:
        attr = self.attr(name)
        if attr is None:
            return None
        values = unwrap(attr)
        if isinstance(values, list):
            return [int(v) for v in values]
        return [int(values)]

    def silenceable(self, message: str, payload=None) -> TransformResult:
        return TransformResult.silenceable(message, self, payload or [])

    def definite(self, message: str) -> TransformResult:
        return TransformResult.definite(message, self)

    def apply_each(
        self, state: TransformState,
        transform_one: Callable[[Operation],
                                Optional[Sequence[Optional[Operation]]]],
    ) -> TransformResult:
        """Apply ``transform_one`` to each payload op of operand 0, in
        order — MLIR's ``TransformEachOpTrait``: a per-payload-op
        transform says what it does to one op and this loop does the
        rest. The i-th op ``transform_one`` returns goes to result i
        (None adds nothing); a :class:`LoopTransformError` is a
        silenceable failure on that payload op."""
        mapped: List[List[Operation]] = [[] for _ in self.results]
        for payload_op in state.get_payload(self.operand(0)):
            failure = _destroyed_mid_iteration(self, state, payload_op)
            if failure is not None:
                return failure
            try:
                produced = transform_one(payload_op)
            except LoopTransformError as error:
                return self.silenceable(str(error), [payload_op])
            for ops, op in zip(mapped, produced or ()):
                if op is not None:
                    ops.append(op)
        for result, ops in zip(self.results, mapped):
            state.set_payload(result, ops)
        return TransformResult.success()


#: Stands in for an op that is not a :class:`TransformOp` (unregistered,
#: foreign): the base-class defaults and nothing else.
_UNDECLARED = TransformOp("transform.undeclared")


def declared(op: Operation) -> TransformOp:
    """The carrier of ``op``'s declarations: ``op`` itself when it is a
    transform op — ops parsed from text are instances of their
    registered class — else the conservative defaults."""
    return op if isinstance(op, TransformOp) else _UNDECLARED


# ---------------------------------------------------------------------------
# Structural ops: sequence, named_sequence, include, yield, foreach,
# alternatives
# ---------------------------------------------------------------------------


@register_op
class SequenceOp(TransformOp):
    """Top-level entry point; its block argument is the payload root.

    The ``failures`` attribute selects the propagation mode (as in
    MLIR): ``"propagate"`` (default) forwards silenceable errors to the
    caller; ``"suppress"`` swallows them — compilation proceeds with
    whatever the successful prefix achieved.
    """

    NAME = "transform.sequence"
    TRAITS = frozenset({SingleBlock})
    FUNCTION_LOCAL = True

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def suppresses_failures(self) -> bool:
        return self._str_attr("failures", "propagate") == "suppress"

    def may_fail_silenceably(self) -> bool:
        return not self.suppresses_failures

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        state.set_payload(self.body.args[0], [state.payload_root])
        result = interpreter.run_block(self.body, state)
        if result.is_silenceable and self.suppresses_failures:
            return TransformResult.success()
        return result


@register_op
class NamedSequenceOp(TransformOp):
    """A reusable macro (§3.2); expanded by ``include`` or the inliner."""

    NAME = "transform.named_sequence"
    TRAITS = frozenset({SymbolTrait, SingleBlock, IsolatedFromAbove})
    MAY_FAIL_SILENCEABLY = False  # an inline occurrence is a no-op

    @property
    def sym_name(self) -> str:
        return self._str_attr("sym_name")

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        # Named sequences run only inlined at an include or as the main
        # entry point; encountering one inline is a no-op declaration.
        return TransformResult.success()


@register_op
class YieldOp(TransformOp):
    NAME = "transform.yield"
    TRAITS = frozenset({IsTerminator})
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return TransformResult.success()


@register_op
class IncludeOp(TransformOp):
    """Macro expansion: a call of a function-like named sequence, which
    the inliner expands (``expand_includes``) before anything reads or
    runs the script — it has no interpreter rule of its own."""

    NAME = "transform.include"

    def callee(self) -> Optional["NamedSequenceOp"]:
        """The named sequence ``target`` names, resolved from here —
        the one answer lint and ``expand_includes`` read; None when it
        names none."""
        callee = find_callee(self, "target")
        return callee if isinstance(callee, NamedSequenceOp) else None


@register_op
class ForeachOp(TransformOp):
    """Run the body once per payload op of the operand handle.

    Handles yielded by the body are gathered across iterations: the
    op's i-th result maps to the concatenation of the i-th yielded
    handle's payload from every iteration (as in MLIR's foreach). A
    rollback in the body undoes writes and keeps every op's identity,
    so the pending and gathered payload ops stay valid across it.
    """

    NAME = "transform.foreach"
    TRAITS = frozenset({SingleBlock})

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        payload = state.get_payload(self.operand(0))
        gathered: List[List[Operation]] = [[] for _ in self.results]
        for payload_op in payload:
            state.set_payload(self.body.args[0], [payload_op])
            result = interpreter.run_block(self.body, state)
            if not result.succeeded:
                return result
            terminator = self.body.terminator
            if terminator is not None and self.results:
                if len(terminator.operands) != len(self.results):
                    return self.definite(
                        "foreach yield arity does not match results"
                    )
                for bucket, yielded in zip(gathered, terminator.operands):
                    bucket.extend(state.get_payload(yielded))
        for result_value, bucket in zip(self.results, gathered):
            state.set_payload(result_value, bucket)
        return TransformResult.success()


@register_op
class AlternativesOp(TransformOp):
    """Try each region in turn; silenceable failures select the next one.

    Each attempt runs inside a :class:`~repro.core.transaction.
    PayloadTransaction`, which journals every IR write: a silenceable
    failure undoes them and restores the handle state before the next
    region runs (§3.4, Fig. 8). Any other exit — success, a definite
    error, an exception escaping the region — closes the transaction
    and keeps the payload as the region left it. A region's block
    argument, if any, maps to the scope: the single payload op of the
    optional operand handle, else the payload root, the same object
    after a rollback. On success the op's results are mapped from the
    winning region's ``transform.yield`` operands.

    An empty region is an always-succeeding no-op alternative — the
    "leave the code unchanged" fallback of Fig. 8.
    """

    NAME = "transform.alternatives"

    def may_fail_silenceably(self) -> bool:
        # With an empty fallback region the op as a whole cannot fail.
        return not any(region.is_empty for region in self.regions)

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        from .transaction import PayloadTransaction

        scope = [state.payload_root]
        if self.num_operands:
            scope = state.get_payload(self.operand(0))
            if len(scope) != 1:
                return self.definite(
                    "alternatives scope handle must map to exactly one "
                    f"payload op, got {len(scope)}"
                )
        last: Optional[TransformResult] = None
        for region in self.regions:
            if not region.blocks or not region.blocks[0].ops:
                # Empty fallback: leave the code unchanged; results map
                # to nothing (there is no yield to take them from).
                for result_value in self.results:
                    state.set_payload(result_value, [])
                return TransformResult.success()
            block = region.blocks[0]
            transaction = PayloadTransaction(state)
            try:
                if block.args:
                    state.set_payload(block.args[0], scope)
                result = interpreter.run_block(block, state)
            except BaseException:
                transaction.commit()
                raise
            if not result.is_silenceable:
                # Success keeps the region's writes; a definite error,
                # like an escaping exception, aborts interpretation and
                # leaves the payload as-is for post-mortem debugging (as
                # in MLIR).
                transaction.commit()
                if result.is_definite:
                    return result
                return self._map_results(block, state)
            transaction.rollback()
            last = result  # silenceable: suppressed, try next region
        if last is None:
            return TransformResult.success()
        return self.silenceable(
            f"all alternatives failed; last error: {last.message}"
        )

    def _map_results(self, block: Block,
                     state: TransformState) -> TransformResult:
        """Populate the op's results from the region's yield operands."""
        if not self.results:
            return TransformResult.success()
        terminator = block.terminator
        yielded = (
            list(terminator.operands)
            if terminator is not None and terminator.name == "transform.yield"
            else []
        )
        if len(yielded) != len(self.results):
            return self.definite(
                f"succeeding alternative yields {len(yielded)} values "
                f"but the op has {len(self.results)} results"
            )
        for out, value in zip(self.results, yielded):
            if isinstance(out.type, ParamType):
                state.set_param(out, state.get_param(value))
            else:
                state.set_payload(out, state.get_payload(value))
        return TransformResult.success()


# ---------------------------------------------------------------------------
# Matching and handle manipulation
# ---------------------------------------------------------------------------


@register_op
class MatchOp(TransformOp):
    """``match.op "scf.for" {first} in %scope`` (Fig. 1 lines 2, 4)."""

    NAME = "transform.match_op"
    DERIVES = "nested"
    RESULT_ONLY = True
    FUNCTION_LOCAL = True  # narrowed by position, below

    #: Recognized values of the ``position`` attribute.
    POSITIONS = ("all", "first", "second", "last")

    def may_fail_silenceably(self) -> bool:
        # Only a positional match can come up empty-handed.
        return self._str_attr("position", "all") != "all"

    def is_function_local(self) -> bool:
        # Positional selection counts across the whole module.
        return self._str_attr("position", "all") == "all"

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        scope = state.get_payload(self.operand(0))
        names_attr = self.attr("names")
        wanted = unwrap(names_attr) if names_attr is not None else []
        if isinstance(wanted, str):
            wanted = [wanted]
        position = self._str_attr("position", "all")
        if position not in self.POSITIONS:
            return self.definite(
                f"unknown position {position!r}; expected one of "
                + ", ".join(repr(p) for p in self.POSITIONS)
            )

        matched: List[Operation] = []
        for root in scope:
            for op in root.walk():
                if op is root:
                    continue
                if not wanted or op.name in wanted:
                    matched.append(op)

        if position == "first":
            matched = matched[:1]
        elif position == "second":
            matched = matched[1:2]
        elif position == "last":
            matched = matched[-1:]
        if not matched and position != "all":
            return self.silenceable(
                f"no payload op matching {wanted} at position {position}"
            )
        result_type = self.results[0].type
        for op in matched:
            if not getattr(result_type, "accepts_op_name",
                           lambda _n: True)(op.name):
                return self.definite(
                    f"matched op '{op.name}' does not satisfy handle "
                    f"type {result_type}"
                )
        state.set_payload(self.results[0], matched)
        return TransformResult.success()


@register_op
class GetParentOp(TransformOp):
    """Map each payload op to its closest ancestor with a given name."""

    NAME = "transform.get_parent_op"
    DERIVES = "enclosing"
    RESULT_ONLY = True
    FUNCTION_LOCAL = True  # narrowed by op_name, below

    def is_function_local(self) -> bool:
        # No op_name means the immediate parent, which for a top-level
        # function is the module; naming builtin.module climbs there
        # on purpose. Either way the handle escapes the function.
        return self._str_attr("op_name") not in ("", "builtin.module")

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        wanted = self._str_attr("op_name")
        parents: List[Operation] = []
        for payload_op in state.get_payload(self.operand(0)):
            current = payload_op.parent_op
            while current is not None and wanted and current.name != wanted:
                current = current.parent_op
            if current is None:
                return self.silenceable(
                    f"payload op has no ancestor named {wanted!r}"
                )
            if current not in parents:
                parents.append(current)
        state.set_payload(self.results[0], parents)
        return TransformResult.success()


@register_op
class SelectOp(TransformOp):
    """Filter a handle's payload by op name (keeps matching ops)."""

    NAME = "transform.select"
    DERIVES = "subset"
    RESULT_ONLY = True
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        wanted = self._str_attr("op_name")
        selected = [
            op for op in state.get_payload(self.operand(0))
            if not wanted or op.name == wanted
        ]
        state.set_payload(self.results[0], selected)
        return TransformResult.success()


@register_op
class AnnotateOp(TransformOp):
    """Attach an attribute to every payload op of the handle.

    The Transform-dialect answer to the brittle metadata communication
    of §2.1: instead of patterns guessing from stray attributes, the
    *script* decides which ops get marked (e.g. for a later
    ``match_op``/``select`` or a pass reading the annotation).
    """

    NAME = "transform.annotate"
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        name = self._str_attr("attr_name")
        if not name:
            return self.definite("annotate requires 'attr_name'")
        value = self.attr("attr_value")
        params = (
            state.get_param(self.operand(1))
            if self.num_operands > 1 else None
        )
        for payload_op in state.get_payload(self.operand(0)):
            if params is not None:
                payload_op.set_attr(name, params[0])
            elif value is not None:
                payload_op.set_attr(name, value)
            else:
                payload_op.set_attr(name, UnitAttr())
        return TransformResult.success()


@register_op
class MergeHandlesOp(TransformOp):
    NAME = "transform.merge_handles"
    DERIVES = "subset"
    RESULT_ONLY = True
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        merged: List[Operation] = []
        for operand in self.operands:
            for op in state.get_payload(operand):
                if op not in merged:
                    merged.append(op)
        state.set_payload(self.results[0], merged)
        return TransformResult.success()


@register_op
class SplitHandleOp(TransformOp):
    """Split a handle into N handles of one payload op each."""

    NAME = "transform.split_handle"
    DERIVES = "subset"
    RESULT_ONLY = True

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        payload = state.get_payload(self.operand(0))
        if len(payload) != len(self.results):
            return self.silenceable(
                f"expected {len(self.results)} payload ops, got "
                f"{len(payload)}"
            )
        for result, op in zip(self.results, payload):
            state.set_payload(result, [op])
        return TransformResult.success()


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@register_op
class ParamConstantOp(TransformOp):
    """``param.constant 8`` — an externalized heuristic value (Fig. 1)."""

    NAME = "transform.param.constant"
    #: The one pure transform op: with no operands, its result depends
    #: on its attributes alone. Ops reading a handle read the mapping
    #: at their position in the script, so none of them is pure.
    TRAITS = frozenset({Pure})
    RESULT_ONLY = True
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        value = self.attr("value")
        if value is None:
            return self.definite("param.constant requires a 'value'")
        payload = unwrap(value)
        state.set_param(
            self.results[0],
            payload if isinstance(payload, list) else [payload],
        )
        return TransformResult.success()


@register_op
class NumPayloadOpsOp(TransformOp):
    """Derive a parameter from the payload: number of mapped ops."""

    NAME = "transform.num_payload_ops"
    RESULT_ONLY = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        state.set_param(
            self.results[0], [len(state.get_payload(self.operand(0)))]
        )
        return TransformResult.success()


def _resolve_sizes(op: TransformOp, state: TransformState,
                   attr_name: str, param_operands: Sequence[Value]
                   ) -> Optional[List[int]]:
    """Sizes from parameter operands when present, else from attributes."""
    if param_operands:
        values: List[int] = []
        for operand in param_operands:
            values.extend(int(v) for v in state.get_param(operand))
        return values
    return op._int_list_attr(attr_name)


def _destroyed_mid_iteration(op: TransformOp, state: TransformState,
                             payload_op: Operation
                             ) -> Optional[TransformResult]:
    """Guard against handles whose payload ops destroy each other.

    A handle may map several loops of one nest (e.g. ``match_op
    "scf.for"`` with position ``all``); transforming the outer loop
    destroys the inner ones, so by the time the iteration reaches them
    they are no longer part of the payload tree (erasing the outer op
    detaches only the outer op itself — nested ops keep stale parent
    pointers into the dead block, so the check must walk up to the
    payload root). Touching such an op used to crash with an
    ``IndexError`` deep inside the loop utilities (fuzzer-found); it is
    a failed precondition of the transform — the payload is still valid
    IR — so report it silenceably.
    """
    root = state.payload_root
    current: Optional[Operation] = payload_op
    while current is not None:
        if current is root:
            return None
        block = current.parent
        region = block.parent if block is not None else None
        current = region.parent if region is not None else None
    return op.silenceable(
        f"payload op '{payload_op.name}' was destroyed while "
        "processing an earlier payload op of the same handle"
    )


# ---------------------------------------------------------------------------
# Loop transforms
# ---------------------------------------------------------------------------


@register_op
class LoopTileOp(TransformOp):
    """Tile a loop (or perfect nest); yields (tile-band, point-band).

    ``tile_sizes`` comes from an attribute or parameter operands; in a
    nest a size of 0 leaves that dimension untiled (a lone size must be
    positive).
    """

    NAME = "transform.loop.tile"
    CONSUMES = (0,)
    NESTED_RESULTS = ((1, 0),)  # the point band is inside the tile band
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"scf.for", "arith.constant", "arith.addi"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        sizes = _resolve_sizes(self, state, "tile_sizes", self.operands[1:])
        if not sizes:
            return self.definite("loop.tile requires tile sizes")

        def tile(loop: Operation):
            if len(sizes) == 1:
                return tile_loop(loop, sizes[0])
            tiles, points = tile_loop_nest(loop, sizes)
            return tiles[0], (points[0] if points else None)

        return self.apply_each(state, tile)


@register_op
class LoopSplitOp(TransformOp):
    """Split into a divisible main part and a remainder (Fig. 1 line 6)."""

    NAME = "transform.loop.split"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"scf.for", "arith.constant"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        sizes = _resolve_sizes(self, state, "div_by", self.operands[1:])
        if not sizes:
            return self.definite("loop.split requires a divisor")
        return self.apply_each(state, lambda loop: split_loop(loop, sizes[0]))


@register_op
class LoopUnrollOp(TransformOp):
    """Unroll fully (``{full}``) or by a factor; consumes its handle."""

    NAME = "transform.loop.unroll"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"arith.constant"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        full = isinstance(self.attr("full"), UnitAttr)
        factors = _resolve_sizes(self, state, "factor", self.operands[1:])
        factor = factors[0] if factors else None
        if factor == 1 and not full:
            return TransformResult.success()  # no-op (§3.4)
        return self.apply_each(
            state, lambda loop: unroll_loop(loop, factor=factor, full=full)
        )


@register_op
class LoopInterchangeOp(TransformOp):
    """Swap two perfectly nested loops (in place; handles stay valid)."""

    NAME = "transform.loop.interchange"
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"scf.for"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        outers = state.get_payload(self.operand(0))
        inners = state.get_payload(self.operand(1))
        if len(outers) != len(inners):
            return self.definite("interchange handle arity mismatch")
        for outer, inner in zip(outers, inners):
            try:
                interchange_loops(outer, inner)
            except LoopTransformError as error:
                return self.silenceable(str(error), [outer, inner])
        return TransformResult.success()


@register_op
class LoopHoistOp(TransformOp):
    """``loop.hoist from %loop to %func`` (Fig. 1 line 3)."""

    NAME = "transform.loop.hoist"
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset()

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        loops = state.get_payload(self.operand(0))
        targets = (
            state.get_payload(self.operand(1))
            if self.num_operands > 1
            else [None] * len(loops)
        )
        for loop, target in zip(loops, targets):
            try:
                hoist_loop_invariants_to(loop, target)
            except LoopTransformError as error:
                return self.silenceable(str(error), [loop])
        return TransformResult.success()


@register_op
class LoopVectorizeOp(TransformOp):
    """Mark a loop for vectorization with a given width (in place).

    Fails silenceably when the trip count is not divisible by the
    width — the constraint the case-study-5 tuning space encodes
    (Fig. 10: "vectorization is disabled if the trip count of the
    inner-most loop is not divisible by the machine vector size").
    """

    NAME = "transform.loop.vectorize"
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"scf.for"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        widths = _resolve_sizes(self, state, "width", self.operands[1:])
        width = widths[0] if widths else 8
        for loop in state.get_payload(self.operand(0)):
            if loop.name != "scf.for":
                return self.silenceable(
                    f"cannot vectorize {loop.name}", [loop]
                )
            trip = loop.trip_count()  # type: ignore[attr-defined]
            if trip is None or trip % width != 0:
                return self.silenceable(
                    f"trip count {trip} not divisible by vector width "
                    f"{width}",
                    [loop],
                )
            loop.set_attr("vector_width", width)
        return TransformResult.success()


@register_op
class LoopPeelOp(TransformOp):
    NAME = "transform.loop.peel"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"scf.for", "arith.constant"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return self.apply_each(state, peel_loop)


# ---------------------------------------------------------------------------
# Structured-op transforms
# ---------------------------------------------------------------------------


@register_op
class StructuredGeneralizeOp(TransformOp):
    NAME = "transform.structured.generalize"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"linalg.matmul"})
    POSTCONDITIONS = frozenset({"linalg.generic"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return self.apply_each(state,
                               lambda op: [generalize_named_op(op)])


@register_op
class StructuredLowerToLoopsOp(TransformOp):
    NAME = "transform.structured.lower_to_loops"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    PRECONDITIONS = frozenset({"linalg.matmul"})
    POSTCONDITIONS = frozenset({"scf.for", "memref.load", "memref.store",
                                "arith.mulf", "arith.addf",
                                "arith.constant"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        # The result maps the outermost loop of each nest.
        return self.apply_each(state,
                               lambda op: lower_linalg_to_loops(op)[:1])


@register_op
class ToLibraryOp(TransformOp):
    """Replace a matmul nest with a microkernel call (Fig. 8 line 7)."""

    NAME = "transform.to_library"
    CONSUMES = (0,)
    PRECONDITIONS = frozenset({"scf.for"})
    POSTCONDITIONS = frozenset({"func.call"})

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        library_name = self._str_attr("library", "libxsmm")
        library = LIBRARY_REGISTRY.get(library_name)
        if library is None:
            return self.definite(f"unknown library {library_name!r}")
        return self.apply_each(
            state, lambda loop: [replace_with_library_call(loop, library)]
        )


# ---------------------------------------------------------------------------
# Pass and pattern application
# ---------------------------------------------------------------------------


@register_op
class ApplyRegisteredPassOp(TransformOp):
    """Invoke a registered compiler pass on each payload op (§4.1)."""

    NAME = "transform.apply_registered_pass"
    MAY_FAIL_SILENCEABLY = False  # a pass failure is definite

    @property
    def pass_name(self) -> str:
        return self._str_attr("pass_name")

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        from ..passes.manager import PASS_REGISTRY

        cls = PASS_REGISTRY.get(self.pass_name)
        if cls is None:
            return self.definite(f"unknown pass {self.pass_name!r}")
        payload = state.get_payload(self.operand(0))
        options_attr = self.attr("options")
        options = unwrap(options_attr) if options_attr is not None else {}
        pass_instance = cls(**options) if options else cls()
        for payload_op in payload:
            try:
                pass_instance.run(payload_op)
            except Exception as error:  # pass failure -> definite
                return self.definite(
                    f"pass {self.pass_name} failed: {error}"
                )
        if self.results:
            state.set_payload(self.results[0], payload)
        return TransformResult.success()


@register_op
class ApplyPatternsOp(TransformOp):
    """Greedily apply the patterns named in the body region (§4.3).

    The body holds zero-result marker ops ``transform.pattern.<name>``;
    each names an entry of the pattern registry. The transform state is
    subscribed to the rewrite driver so handles survive replacements.
    """

    NAME = "transform.apply_patterns"
    TRAITS = frozenset({SingleBlock})
    FUNCTION_LOCAL = True
    MAY_FAIL_SILENCEABLY = False  # a pattern crash is definite

    def pattern_names(self) -> List[str]:
        names: List[str] = []
        if self.regions and self.regions[0].blocks:
            for op in self.regions[0].entry_block.ops:
                if op.name.startswith("transform.pattern."):
                    names.append(op.name[len("transform.pattern."):])
        return names

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        from ..rewrite.greedy import (
            FrozenPatternSet,
            GreedyRewriteConfig,
            apply_patterns_greedily,
        )

        patterns: List[RewritePattern] = []
        for name in self.pattern_names():
            factory = TRANSFORM_PATTERN_REGISTRY.get(name)
            if factory is None:
                return self.definite(f"unknown pattern {name!r}")
            patterns.append(factory())
        frozen = FrozenPatternSet(patterns)
        # Thread the interpreter's strict mode into the driver so a
        # crashing pattern either surfaces raw (strict) or is wrapped
        # and then contained by the interpreter's exception barrier.
        config = GreedyRewriteConfig(
            strict=getattr(interpreter, "strict", False)
        )
        for payload_op in state.get_payload(self.operand(0)):
            apply_patterns_greedily(
                payload_op, frozen, config=config, extra_listeners=[state],
                profiler=getattr(interpreter, "profiler", None),
            )
        return TransformResult.success()


@register_op
class PatternMarkerOp(TransformOp):
    """Generic marker inside apply_patterns bodies; never executed."""

    NAME = "transform.pattern"
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return TransformResult.success()


# ---------------------------------------------------------------------------
# Miscellaneous
# ---------------------------------------------------------------------------


@register_op
class PrintOp(TransformOp):
    """Print payload ops with an optional message (debugging aid)."""

    NAME = "transform.print"
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        message = self._str_attr("message", "")
        payload = state.get_payload(self.operand(0)) if self.num_operands else []
        lines = [f"[transform.print] {message}"]
        for payload_op in payload:
            lines.append(str(payload_op))
        interpreter.output.append("\n".join(lines))
        return TransformResult.success()


@register_op
class CastOp(TransformOp):
    """Refine/relax the handle type; payload is checked against it."""

    NAME = "transform.cast"
    DERIVES = "subset"
    RESULT_ONLY = True
    FUNCTION_LOCAL = True

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        payload = state.get_payload(self.operand(0))
        result_type = self.results[0].type
        for op in payload:
            if not getattr(result_type, "accepts_op_name",
                           lambda _n: True)(op.name):
                return self.silenceable(
                    f"payload op '{op.name}' incompatible with "
                    f"{result_type}"
                )
        state.set_payload(self.results[0], payload)
        return TransformResult.success()


@register_op
class AutodiffOp(TransformOp):
    """Apply a toy AD transform; the 'add' dialect is introspected (§3.4).

    For every payload op flagged ``differentiate``, emits the sum of
    partial derivatives using the add operation of the dialect recorded
    in ``add_dialect`` — filled in by
    :func:`repro.core.script_transforms.infer_ad_dialects` from the
    transform script's position in the lowering progression (Fig. 5).
    """

    NAME = "transform.autodiff"
    MAY_FAIL_SILENCEABLY = False  # missing configuration is definite

    AD_ADD_OPS = {
        "stablehlo": "stablehlo.add",
        "arith": "arith.addf",
        "llvm": "llvm.fadd",
    }

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        dialect = self._str_attr("add_dialect")
        if not dialect:
            return self.definite(
                "autodiff requires 'add_dialect'; run "
                "infer_ad_dialects on the script or set it manually"
            )
        add_name = self.AD_ADD_OPS.get(dialect)
        if add_name is None:
            return self.definite(f"no add op known for {dialect!r}")
        for payload_op in state.get_payload(self.operand(0)):
            for target in list(payload_op.walk()):
                if target.attr("differentiate") is None:
                    continue
                if not target.results:
                    continue
                builder = Builder.after(target)
                partials = [
                    value for value in target.operands
                    if value.type == target.results[0].type
                ]
                if len(partials) < 2:
                    continue
                gradient = partials[0]
                for partial in partials[1:]:
                    gradient = builder.create(
                        add_name,
                        operands=[gradient, partial],
                        result_types=[gradient.type],
                        attributes={"autodiff_sum": True},
                    ).result
        return TransformResult.success()


@register_op
class EmitSilenceableOp(TransformOp):
    """Testing aid: unconditionally signal a silenceable error."""

    NAME = "transform.test.emit_silenceable"
    ALWAYS_FAILS = True

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return self.silenceable(self._str_attr("message", "silenceable"))


@register_op
class EmitDefiniteOp(TransformOp):
    """Testing aid: unconditionally signal a definite error."""

    NAME = "transform.test.emit_definite"
    ALWAYS_FAILS = True
    MAY_FAIL_SILENCEABLY = False

    def apply(self, interpreter, state: TransformState) -> TransformResult:
        return self.definite(self._str_attr("message", "definite"))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def sequence() -> Tuple[Operation, Builder, Value]:
    """Create a top-level sequence; returns (op, body builder, root handle)."""
    op = Operation.create("transform.sequence", regions=1)
    body = Block([ANY_OP])
    op.regions[0].add_block(body)
    return op, Builder.at_end(body), body.args[0]


def named_sequence(name: str,
                   n_args: int = 1) -> Tuple[Operation, Builder, List[Value]]:
    op = Operation.create(
        "transform.named_sequence",
        regions=1,
        attributes={"sym_name": name},
    )
    body = Block([ANY_OP] * n_args)
    op.regions[0].add_block(body)
    return op, Builder.at_end(body), list(body.args)


def yield_(builder: Builder, values: Sequence[Value] = ()) -> Operation:
    return builder.create("transform.yield", operands=list(values))


def include(builder: Builder, target: str, args: Sequence[Value] = (),
            n_results: int = 0) -> Operation:
    return builder.create(
        "transform.include",
        operands=list(args),
        result_types=[ANY_OP] * n_results,
        attributes={"target": SymbolRefAttr(target)},
    )


def match_op(builder: Builder, scope: Value, names: Union[str, Sequence[str]],
             position: str = "all",
             result_type: Optional[object] = None) -> Value:
    if isinstance(names, str):
        names = [names]
    if result_type is None:
        result_type = (
            OperationHandleType(names[0]) if len(names) == 1 else ANY_OP
        )
    return builder.create(
        "transform.match_op",
        operands=[scope],
        result_types=[result_type],
        attributes={"names": list(names), "position": position},
    ).result


def param_constant(builder: Builder, value: Union[int, Sequence[int]]) -> Value:
    return builder.create(
        "transform.param.constant",
        result_types=[PARAM_I64],
        attributes={"value": value if isinstance(value, int)
                    else list(value)},
    ).result


def loop_tile(builder: Builder, loop: Value,
              tile_sizes: Union[Sequence[int], Value, None] = None
              ) -> Tuple[Value, Value]:
    operands = [loop]
    attributes: Dict[str, object] = {}
    if isinstance(tile_sizes, Value):
        operands.append(tile_sizes)
    elif tile_sizes is not None:
        attributes["tile_sizes"] = list(tile_sizes)
    op = builder.create(
        "transform.loop.tile",
        operands=operands,
        result_types=[ANY_OP, ANY_OP],
        attributes=attributes or None,
    )
    return op.results[0], op.results[1]


def loop_split(builder: Builder, loop: Value,
               div_by: Union[int, Value]) -> Tuple[Value, Value]:
    operands = [loop]
    attributes: Dict[str, object] = {}
    if isinstance(div_by, Value):
        operands.append(div_by)
    else:
        attributes["div_by"] = div_by
    op = builder.create(
        "transform.loop.split",
        operands=operands,
        result_types=[ANY_OP, ANY_OP],
        attributes=attributes or None,
    )
    return op.results[0], op.results[1]


def loop_unroll(builder: Builder, loop: Value, factor: Optional[int] = None,
                full: bool = False) -> Operation:
    attributes: Dict[str, object] = {}
    if full:
        attributes["full"] = UnitAttr()
    if factor is not None:
        attributes["factor"] = factor
    return builder.create(
        "transform.loop.unroll", operands=[loop], attributes=attributes
    )


def loop_interchange(builder: Builder, outer: Value,
                     inner: Value) -> Operation:
    return builder.create(
        "transform.loop.interchange", operands=[outer, inner]
    )


def loop_hoist(builder: Builder, loop: Value,
               target: Optional[Value] = None) -> Operation:
    operands = [loop] if target is None else [loop, target]
    return builder.create("transform.loop.hoist", operands=operands)


def loop_vectorize(builder: Builder, loop: Value,
                   width: Union[int, Value] = 8) -> Operation:
    operands = [loop]
    attributes: Dict[str, object] = {}
    if isinstance(width, Value):
        operands.append(width)
    else:
        attributes["width"] = width
    return builder.create(
        "transform.loop.vectorize",
        operands=operands,
        attributes=attributes or None,
    )


def to_library(builder: Builder, nest: Value,
               library: str = "libxsmm") -> Operation:
    return builder.create(
        "transform.to_library",
        operands=[nest],
        attributes={"library": library},
    )


def alternatives(builder: Builder, n_regions: int = 2,
                 scope: Optional[Value] = None,
                 n_results: int = 0) -> Operation:
    op = builder.create(
        "transform.alternatives",
        operands=[scope] if scope is not None else [],
        result_types=[ANY_OP] * n_results,
        regions=n_regions,
    )
    for region in op.regions:
        region.add_block()
    return op


def apply_registered_pass(builder: Builder, target: Value, pass_name: str,
                          options: Optional[Dict[str, object]] = None,
                          with_result: bool = True) -> Optional[Value]:
    attributes: Dict[str, object] = {"pass_name": pass_name}
    if options:
        attributes["options"] = options
    op = builder.create(
        "transform.apply_registered_pass",
        operands=[target],
        result_types=[ANY_OP] if with_result else [],
        attributes=attributes,
    )
    return op.results[0] if with_result else None


def apply_patterns(builder: Builder, target: Value,
                   pattern_names: Sequence[str]) -> Operation:
    op = builder.create(
        "transform.apply_patterns", operands=[target], regions=1
    )
    body = op.regions[0].add_block()
    body_builder = Builder.at_end(body)
    for name in pattern_names:
        body_builder.create(f"transform.pattern.{name}")
    return op


def select(builder: Builder, handle: Value, op_name: str) -> Value:
    return builder.create(
        "transform.select",
        operands=[handle],
        result_types=[ANY_OP],
        attributes={"op_name": op_name},
    ).result


def annotate(builder: Builder, handle: Value, attr_name: str,
             value: Optional[object] = None) -> Operation:
    attributes: Dict[str, object] = {"attr_name": attr_name}
    if value is not None and not isinstance(value, Value):
        attributes["attr_value"] = value
    operands = [handle]
    if isinstance(value, Value):
        operands.append(value)
    return builder.create(
        "transform.annotate", operands=operands, attributes=attributes
    )


def print_(builder: Builder, handle: Value, message: str = "") -> Operation:
    return builder.create(
        "transform.print",
        operands=[handle],
        attributes={"message": message},
    )


def foreach(builder: Builder, handle: Value) -> Tuple[Operation, Builder, Value]:
    op = builder.create("transform.foreach", operands=[handle], regions=1)
    body = Block([ANY_OP])
    op.regions[0].add_block(body)
    return op, Builder.at_end(body), body.args[0]
