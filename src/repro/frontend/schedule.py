"""A fluent, typed builder for transform scripts.

``Schedule().match("linalg.matmul").tile(sizes=[32, 32]).unroll(4)``
emits the same transform IR one would write by hand, with two
guarantees the textual path cannot give:

* **Use-after-consume is a Python error.** Every emitted op that takes
  or produces a payload handle passes through one helper
  (``_Scope._emit``) that reads the op class's declarations
  (:mod:`repro.core.dialect`): the operands at ``CONSUMES`` (§3.1) are
  marked dead at build time together with every handle derived from
  them, and the results are linked to the operands per ``DERIVES`` —
  the same edges the lint's invalidation analysis draws — so reusing a
  dead handle raises :class:`~repro.frontend.errors.ScheduleError`
  before ``repro-lint`` (let alone the interpreter) ever sees the
  script. An ``include`` consumes what its callee does: a macro
  defined here records it while its body is built, a shipped library
  macro's contract is what the invalidation analysis finds consumed
  when it runs over the macro's inlined body.
* **Lint-clean by construction.** Because the builder refuses stale
  handles and only ``include``\\ s sequences it knows are defined, the
  emitted script carries zero error-severity ``repro-lint``
  diagnostics (dead-handle/dead-macro *warnings* remain possible —
  they are advisory).

The **cursor** is the implicit subject of the chain: ``match`` sets
it, in-place transforms keep it, and a consuming transform moves it to
its main result (``tile`` → the inner loop, ``split`` → the main
part). When a consuming transform returns nothing (``unroll``,
``to_library``), the cursor falls back to the most recently created
handle still live — after ``.tile(...).unroll(4)`` the chain continues
on the *outer* tile loop.

``param(value, binding="NAME")`` emits ``transform.param.constant
{binding = "NAME"}``, the anchor the service's parameter-override path
(``bind_parameters``) and the autotuner rebind per configuration.
"""

from __future__ import annotations

import functools
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from ..analysis.dataflow import ForwardEngine
from ..analysis.invalidation import InvalidationAnalysis
from ..core import dialect as transform
from ..core import schedules
from ..core.script_transforms import inlined_script
from ..core.types import ANY_OP
from ..dialects import builtin
from ..ir.builder import Builder
from ..ir.core import Operation, Value
from ..ir.hashing import op_digest
from ..ir.parser import parse
from ..ir.printer import print_op
from .errors import ScheduleError

__all__ = ["Handle", "Schedule"]


class Handle:
    """One transform handle (or param) tracked by the builder."""

    __slots__ = ("value", "kind", "is_param", "label", "consumed_by",
                 "_scope", "_down")

    def __init__(self, scope: "_Scope", value: Value,
                 kind: Optional[str] = None, is_param: bool = False,
                 label: Optional[str] = None):
        self._scope = scope
        self.value = value
        self.kind = kind
        self.is_param = is_param
        self.label = label
        self.consumed_by: Optional[str] = None
        #: Handles invalidated together with this one — the builder's
        #: mirror of the lint's derivation edges, drawn by ``_emit``.
        self._down: List["Handle"] = []

    @property
    def live(self) -> bool:
        return self.consumed_by is None

    def __repr__(self) -> str:
        state = f"consumed by {self.consumed_by}" if self.consumed_by \
            else "live"
        name = self.label or self.kind or ("param" if self.is_param
                                           else "any")
        return f"<handle {name}: {state}>"


class _MacroInfo(NamedTuple):
    consumes: Tuple[int, ...]
    n_results: int


@functools.lru_cache(maxsize=None)
def _library_macros(library_ir: str) -> Dict[str, _MacroInfo]:
    """Consumption/result contracts of a schedule library, read off
    each macro of the inlined library by the invalidation analysis:
    the arguments that end up (maybe) consumed and the number of
    handles it yields."""
    engine = ForwardEngine(InvalidationAnalysis(may_alias=False))
    library = inlined_script(parse(library_ir, "<schedule-library>"))
    macros = {}
    for op in library.walk_ops("transform.named_sequence"):
        consumed = engine.run_entry(op).consumed
        macros[op.sym_name] = _MacroInfo(
            tuple(i for i, arg in enumerate(op.body.args)
                  if id(arg) in consumed),
            op.body.terminator.num_operands)
    return macros


class _Scope:
    """Shared emission machinery for the entry sequence, macro bodies,
    and ``alternatives`` regions."""

    def __init__(self, schedule: "Schedule", builder: Builder,
                 root: Optional[Handle],
                 parent: Optional["_Scope"] = None):
        self._schedule = schedule
        self._builder = builder
        self._root = root
        self._parent = parent
        self._cursor: Optional[Handle] = None
        self._named: Dict[str, Handle] = {}
        self._live: List[Handle] = []
        self._open = True

    # -- bookkeeping -------------------------------------------------------

    def _require_open(self, what: str) -> None:
        if not self._open:
            raise ScheduleError(
                f"cannot emit '{what}': this scope is closed "
                "(its region/sequence has already been finalized)"
            )
        self._schedule._require_unbuilt(what)

    def _lookup(self, name: str) -> Handle:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope._named:
                return scope._named[name]
            scope = scope._parent
        raise ScheduleError(f"no handle named {name!r} in scope")

    def _resolve(self, ref: Union[Handle, str]) -> Handle:
        if isinstance(ref, str):
            return self._lookup(ref)
        if not isinstance(ref, Handle):
            raise ScheduleError(f"expected a handle or name, got {ref!r}")
        if ref._scope._schedule is not self._schedule:
            raise ScheduleError(
                "handle belongs to a different Schedule"
            )
        return ref

    def _operand(self, ref: Union[Handle, str], op: str) -> Handle:
        handle = self._resolve(ref)
        if not handle.live:
            who = handle.label or handle.kind or "handle"
            raise ScheduleError(
                f"use-after-consume: {who} was already consumed by "
                f"'{handle.consumed_by}' and cannot be passed to '{op}'"
            )
        return handle

    def _invalidate(self, handle: Handle, op: str) -> None:
        """Mark ``handle`` consumed, plus its whole derivation closure
        — exactly the set the lint's invalidation analysis would flag
        (subset aliases both ways, nested handles downward)."""
        stack = [handle]
        while stack:
            current = stack.pop()
            if not current.live:
                continue
            current.consumed_by = op
            owner = current._scope
            if current in owner._live:
                owner._live.remove(current)
            stack.extend(current._down)

    def _emit(self, op: Operation, what: str, operands: Sequence[Handle],
              kinds: Sequence[Optional[str]] = (),
              names: Optional[Sequence[Optional[str]]] = None,
              consumes: Optional[Sequence[int]] = None) -> List[Handle]:
        """Apply the declarations of the just-emitted ``op`` to the
        builder's handles — the one place a handle dies or a
        derivation edge is drawn.

        ``operands`` are the payload handles ``op`` takes, in operand
        order. Those at the op class's ``CONSUMES`` indices (an
        ``include`` passes its callee's instead) are marked consumed
        with their derivation closure; each result becomes a live
        handle of payload kind ``kinds[i]``, registered as
        ``names[i]``, linked to every operand per the class's
        ``DERIVES``. Returns the result handles."""
        facts = transform.declared(op)
        for index in facts.CONSUMES if consumes is None else consumes:
            if index < len(operands):
                self._invalidate(self._operand(operands[index], what), what)
        results = []
        for index, value in enumerate(op.results):
            kind = kinds[index] if index < len(kinds) else None
            name = names[index] if names and index < len(names) else None
            result = Handle(self, value, kind=kind, label=name)
            self._live.append(result)
            if name is not None:
                self._named[name] = result
            for operand in operands if facts.DERIVES else ():
                # nested: consuming the operand kills the result;
                # enclosing: the reverse; subset: both.
                if facts.DERIVES != "enclosing":
                    operand._down.append(result)
                if facts.DERIVES != "nested":
                    result._down.append(operand)
            results.append(result)
        return results

    def _emit_pair(self, op: Operation, what: str, handle: Handle,
                   names: Optional[Tuple[str, str]], keep: str,
                   first: str, second: str) -> "_Scope":
        """Emit a transform that consumes a loop into two; the cursor
        moves to the one ``keep`` names."""
        pair = self._emit(op, what, [handle], ["scf.for", "scf.for"], names)
        if keep not in (first, second):
            raise ScheduleError(
                f"{what} keep= must be '{first}' or '{second}'")
        self._cursor = pair[1] if keep == second else pair[0]
        return self

    def _subject(self, what: str) -> Handle:
        """The live cursor of an open scope: what a chained call acts on."""
        self._require_open(what)
        return self._cursor_handle(what)

    def _cursor_handle(self, op: str) -> Handle:
        if self._cursor is None or not self._cursor.live:
            raise ScheduleError(
                f"'{op}' needs a current handle: start the chain with "
                ".match(...) or .use(name)"
            )
        return self._cursor

    def _fallback_cursor(self) -> None:
        self._cursor = self._live[-1] if self._live else None

    def _sizes_arg(self, sizes, op: str):
        """An int list stays an attribute; a param handle becomes an
        operand (the tunable form)."""
        if isinstance(sizes, Handle) or isinstance(sizes, str):
            handle = self._operand(sizes, op)
            if not handle.is_param:
                raise ScheduleError(
                    f"'{op}' sizes must be ints or a param handle"
                )
            return handle.value
        return sizes

    # -- handle navigation -------------------------------------------------

    @property
    def root(self) -> Handle:
        if self._root is None:
            raise ScheduleError("this scope has no root handle")
        return self._root

    def handle(self, name: str) -> Handle:
        """Look up a named handle (raises if unknown)."""
        return self._lookup(name)

    def use(self, ref: Union[Handle, str]) -> "_Scope":
        """Make a (named) handle the cursor."""
        self._cursor = self._operand(ref, "use")
        return self

    def match(self, names: Union[str, Sequence[str]],
              position: str = "all",
              in_: Optional[Union[Handle, str]] = None,
              name: Optional[str] = None) -> "_Scope":
        """``transform.match_op``: select payload ops by name."""
        self._require_open("match")
        scope = self._operand(in_, "match") if in_ is not None else self.root
        result = transform.match_op(self._builder, scope.value, names,
                                    position=position)
        kind = names if isinstance(names, str) else None
        self._cursor, = self._emit(result.defining_op(), "match", [scope],
                                   [kind], [name])
        return self

    def select(self, op_name: str, name: Optional[str] = None) -> "_Scope":
        """``transform.select``: filter the cursor by payload op name."""
        handle = self._subject("select")
        result = transform.select(self._builder, handle.value, op_name)
        self._cursor, = self._emit(result.defining_op(), "select", [handle],
                                   [op_name], [name])
        return self

    def merge(self, *refs: Union[Handle, str],
              name: Optional[str] = None) -> "_Scope":
        """``transform.merge_handles`` over the given handles."""
        self._require_open("merge")
        handles = [self._operand(ref, "merge") for ref in refs]
        if not handles:
            raise ScheduleError("merge needs at least one handle")
        op = self._builder.create(
            "transform.merge_handles",
            operands=[h.value for h in handles],
            result_types=[ANY_OP],
        )
        self._cursor, = self._emit(op, "merge", handles, names=[name])
        return self

    def param(self, value: Union[int, Sequence[int]],
              binding: Optional[str] = None,
              name: Optional[str] = None) -> Handle:
        """``transform.param.constant``; a ``binding`` makes it a named
        autotuning knob for the service override path. Returns the
        param handle (params never become the cursor)."""
        self._require_open("param")
        result = transform.param_constant(self._builder, value)
        if binding is not None:
            result.defining_op().set_attr("binding", binding)
        handle = Handle(self, result, is_param=True, label=name or binding)
        if name is not None:
            self._named[name] = handle
        return handle

    # -- loop transforms ---------------------------------------------------

    def tile(self, sizes, keep: str = "inner",
             names: Optional[Tuple[str, str]] = None) -> "_Scope":
        """``transform.loop.tile``: consumes the cursor loop, produces
        (outer, inner); the cursor moves to ``keep``. ``sizes`` may be
        an int list (an attribute), one param handle carrying a list,
        or a list of param handles (one operand per size)."""
        handle = self._subject("tile")
        if isinstance(sizes, (list, tuple)) and any(
                isinstance(size, (Handle, str)) for size in sizes):
            params = [self._operand(size, "tile") for size in sizes]
            if not all(p.is_param for p in params):
                raise ScheduleError(
                    "tile sizes must be all ints or all param handles"
                )
            op = self._builder.create(
                "transform.loop.tile",
                operands=[handle.value] + [p.value for p in params],
                result_types=[ANY_OP, ANY_OP],
            )
        else:
            sizes = self._sizes_arg(sizes, "tile")
            op = transform.loop_tile(self._builder, handle.value,
                                     sizes)[0].defining_op()
        return self._emit_pair(op, "tile", handle, names, keep,
                               "outer", "inner")

    def split(self, div_by, keep: str = "main",
              names: Optional[Tuple[str, str]] = None) -> "_Scope":
        """``transform.loop.split`` into (main, rest)."""
        self._require_open("split")
        div_by = self._sizes_arg(div_by, "split")
        handle = self._cursor_handle("split")
        main, _ = transform.loop_split(self._builder, handle.value, div_by)
        return self._emit_pair(main.defining_op(), "split", handle, names,
                               keep, "main", "rest")

    def peel(self, keep: str = "main",
             names: Optional[Tuple[str, str]] = None) -> "_Scope":
        """``transform.loop.peel`` into (main, remainder)."""
        handle = self._subject("peel")
        op = self._builder.create(
            "transform.loop.peel",
            operands=[handle.value],
            result_types=[ANY_OP, ANY_OP],
        )
        return self._emit_pair(op, "peel", handle, names, keep,
                               "main", "rest")

    def unroll(self, factor: Optional[int] = None,
               full: bool = False) -> "_Scope":
        """``transform.loop.unroll``: consumes the cursor loop; the
        cursor falls back to the most recent live handle."""
        handle = self._subject("unroll")
        self._emit(transform.loop_unroll(self._builder, handle.value,
                                         factor=factor, full=full),
                   "unroll", [handle])
        self._fallback_cursor()
        return self

    def interchange(self, with_: Union[Handle, str]) -> "_Scope":
        """``transform.loop.interchange`` of the cursor and another
        loop handle (both stay live)."""
        outer = self._subject("interchange")
        inner = self._operand(with_, "interchange")
        self._emit(transform.loop_interchange(self._builder, outer.value,
                                              inner.value),
                   "interchange", [outer, inner])
        return self

    def hoist(self, target: Optional[Union[Handle, str]] = None) -> "_Scope":
        """``transform.loop.hoist`` (in place)."""
        handle = self._subject("hoist")
        operands = [handle] + ([self._operand(target, "hoist")]
                               if target is not None else [])
        self._emit(transform.loop_hoist(self._builder,
                                        *[h.value for h in operands]),
                   "hoist", operands)
        return self

    def vectorize(self, width: Union[int, Handle, str] = 8) -> "_Scope":
        """``transform.loop.vectorize`` (in place); width may be a
        param handle."""
        handle = self._subject("vectorize")
        width = self._sizes_arg(width, "vectorize") \
            if not isinstance(width, int) else width
        self._emit(transform.loop_vectorize(self._builder, handle.value,
                                            width),
                   "vectorize", [handle])
        return self

    # -- structured transforms ---------------------------------------------

    def generalize(self) -> "_Scope":
        """``transform.structured.generalize`` (consumes, recurses)."""
        handle = self._subject("generalize")
        op = self._builder.create(
            "transform.structured.generalize",
            operands=[handle.value],
            result_types=[ANY_OP],
        )
        self._cursor, = self._emit(op, "generalize", [handle],
                                   ["linalg.generic"])
        return self

    def lower_to_loops(self) -> "_Scope":
        """``transform.structured.lower_to_loops`` (consumes)."""
        handle = self._subject("lower_to_loops")
        op = self._builder.create(
            "transform.structured.lower_to_loops",
            operands=[handle.value],
            result_types=[ANY_OP],
        )
        self._cursor, = self._emit(op, "lower_to_loops", [handle],
                                   ["scf.for"])
        return self

    def to_library(self, library: str = "libxsmm") -> "_Scope":
        """``transform.to_library``: replace the cursor nest with a
        microkernel call (consumes)."""
        handle = self._subject("to_library")
        self._emit(transform.to_library(self._builder, handle.value, library),
                   "to_library", [handle])
        self._fallback_cursor()
        return self

    # -- pass/pattern application and annotations ---------------------------

    def apply_registered_pass(self, pass_name: str,
                              options: Optional[Dict[str, object]] = None,
                              name: Optional[str] = None) -> "_Scope":
        handle = self._subject("apply_registered_pass")
        result = transform.apply_registered_pass(
            self._builder, handle.value, pass_name, options)
        self._cursor, = self._emit(result.defining_op(),
                                   "apply_registered_pass", [handle],
                                   names=[name])
        return self

    def apply_patterns(self, *pattern_names: str) -> "_Scope":
        handle = self._subject("apply_patterns")
        self._emit(transform.apply_patterns(self._builder, handle.value,
                                            list(pattern_names)),
                   "apply_patterns", [handle])
        return self

    def annotate(self, attr_name: str, value=None) -> "_Scope":
        """``transform.annotate`` the cursor's payload (in place)."""
        handle = self._subject("annotate")
        if isinstance(value, Handle):
            value = self._operand(value, "annotate").value
        self._emit(transform.annotate(self._builder, handle.value, attr_name,
                                      value),
                   "annotate", [handle])
        return self

    def print_(self, message: str = "") -> "_Scope":
        handle = self._subject("print")
        self._emit(transform.print_(self._builder, handle.value, message),
                   "print", [handle])
        return self

    # -- control flow -------------------------------------------------------

    def alternatives(self, *regions: Optional[Callable[["_Scope"], None]],
                     scope: Optional[Union[Handle, str]] = None) -> "_Scope":
        """``transform.alternatives``: each callable populates one
        region against a nested scope; ``None`` leaves an empty
        (always-succeeding) fallback region. Handles consumed inside
        any region are conservatively dead afterwards."""
        self._require_open("alternatives")
        if not regions:
            raise ScheduleError("alternatives needs at least one region")
        scope_handle = (self._operand(scope, "alternatives")
                        if scope is not None else None)
        op = transform.alternatives(
            self._builder, n_regions=len(regions),
            scope=scope_handle.value if scope_handle else None)
        self._emit(op, "alternatives", [scope_handle] if scope_handle else [])
        for body, region in zip(regions, op.regions):
            if body is None:
                continue
            nested = _Scope(self._schedule,
                            Builder.at_end(region.entry_block),
                            self._root, parent=self)
            nested._cursor = scope_handle or self._cursor
            body(nested)
            nested._close("end of alternatives region")
        return self

    def include(self, target: str,
                args: Sequence[Union[Handle, str]] = (),
                name: Optional[str] = None) -> "_Scope":
        """``transform.include`` of a macro defined with
        :meth:`Schedule.define` (or, after :meth:`Schedule.use_library`,
        a shipped library sequence). Arguments the macro consumes are
        marked consumed here, at the call site."""
        self._require_open("include")
        info = self._schedule._macro_info(target)
        handles = [self._operand(ref, f"include @{target}")
                   for ref in args]
        if not handles:
            handles = [self._cursor_handle(f"include @{target}")]
        results = self._emit(
            transform.include(self._builder, target,
                              [h.value for h in handles],
                              n_results=info.n_results),
            f"include @{target}", handles, names=[name],
            consumes=info.consumes)
        if results:
            self._cursor = results[0]
        elif self._cursor is not None and not self._cursor.live:
            self._fallback_cursor()
        return self

    def _close(self, reason: str) -> None:
        for handle in list(self._live):
            handle.consumed_by = reason
        self._live.clear()
        self._open = False


class Schedule(_Scope):
    """The fluent schedule builder (entry ``transform.sequence``)."""

    def __init__(self):
        op, builder, root_value = transform.sequence()
        super().__init__(self, builder, None)
        self._root = Handle(self, root_value, label="root")
        self._sequence_op = op
        self._macros: Dict[str, _MacroInfo] = {}
        self._macro_ops: List[Operation] = []
        #: Contracts of the linked library's macros; None = not linked.
        self._library: Optional[Dict[str, _MacroInfo]] = None
        self._built: Optional[Operation] = None

    # -- macro definitions ---------------------------------------------------

    def _require_unbuilt(self, what: str) -> None:
        if self._built is not None:
            raise ScheduleError(
                f"cannot emit '{what}': this schedule is already built"
            )

    def _macro_info(self, target: str) -> _MacroInfo:
        if target in self._macros:
            return self._macros[target]
        if target in (self._library or ()):
            return self._library[target]
        known = sorted(self._macros) + sorted(self._library or ())
        raise ScheduleError(
            f"include of unknown sequence @{target}; define it with "
            f".define(...) first (known: {known or 'none'})"
        )

    def use_library(self) -> "Schedule":
        """Link the shipped schedule library into the built module so
        its sequences are includable."""
        self._require_unbuilt("use_library")
        self._library = _library_macros(schedules.SCHEDULE_LIBRARY_IR)
        return self

    def define(self, name: str,
               body: Callable[["_Scope"], Optional[Union[Handle,
                                                         Sequence[Handle]]]],
               n_args: int = 1) -> "Schedule":
        """Define a ``transform.named_sequence`` macro. ``body`` runs
        against a fresh scope whose cursor is the first argument; any
        handle(s) it returns become the macro's yielded results."""
        self._require_unbuilt("define")
        if name in self._macros:
            raise ScheduleError(f"sequence @{name} is already defined")
        op, builder, arg_values = transform.named_sequence(name,
                                                           n_args=n_args)
        scope = _Scope(self, builder, None)
        arg_handles = [Handle(scope, value, label=f"arg{i}")
                       for i, value in enumerate(arg_values)]
        scope._root = arg_handles[0]
        scope._cursor = arg_handles[0]
        for i, handle in enumerate(arg_handles):
            scope._named[f"arg{i}"] = handle
        returned = body(scope)
        if returned is None:
            yielded: List[Handle] = []
        elif isinstance(returned, Handle):
            yielded = [returned]
        else:
            yielded = list(returned)
        values = [scope._operand(h, "yield").value for h in yielded]
        transform.yield_(builder, values)
        consumes = tuple(i for i, handle in enumerate(arg_handles)
                         if not handle.live)
        scope._close(f"end of named sequence @{name}")
        self._macros[name] = _MacroInfo(consumes, len(values))
        self._macro_ops.append(op)
        return self

    # -- products ------------------------------------------------------------

    def build(self) -> Operation:
        """Finalize and return the transform script (idempotent)."""
        if self._built is not None:
            return self._built
        transform.yield_(self._builder)
        if self._macro_ops or self._library is not None:
            module = builtin.module()
            for macro in self._macro_ops:
                module.body.append(macro)
            module.body.append(self._sequence_op)
            if self._library is not None:
                schedules.link_schedule_library(module)
            self._built = module
        else:
            self._built = self._sequence_op
        self._close("schedule built")
        return self._built

    @property
    def script(self) -> Operation:
        return self.build()

    @property
    def mlir(self) -> str:
        return print_op(self.build())

    @property
    def digest(self) -> str:
        return op_digest(self.build())

    def lint(self, **kwargs):
        """Run ``repro-lint`` over the built script and return the
        diagnostic engine."""
        from ..analysis.lint import lint_script
        return lint_script(self.build(), **kwargs)
