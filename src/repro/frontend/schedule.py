"""A fluent, typed builder for transform scripts.

``Schedule().match("linalg.matmul").tile(sizes=[32, 32]).unroll(4)``
emits the same transform IR one would write by hand, with two
guarantees the textual path cannot give:

* **Use-after-consume is a Python error.** The builder is a client of
  the lint's use-after-consume analysis
  (:class:`~repro.analysis.invalidation.InvalidationAnalysis`, without
  may-alias facts): each scope holds one analysis state and steps every
  op it emits through the dataflow engine, so what an op class declares
  it consumes and derives (:mod:`repro.core.dialect`) acts here
  exactly as it acts in the lint. A handle is usable iff its
  value is defined in the scope's state and carries no consumption
  fact there, of any severity; passing any other handle raises
  :class:`~repro.frontend.errors.ScheduleError` before ``repro-lint``
  (let alone the interpreter) ever sees the script. An
  ``alternatives`` region is built on a fork of its parent's state, so
  a handle consumed in region *k* is still usable in region *k + 1*
  (rollback restores it) but dead after the op. An ``include`` is
  stepped through its callee's body as the inliner expands it, which
  is how the lint reads it: what the body consumes dies at the call
  site, and each result aliases the handle the body yields — for a
  macro defined here and for a shipped library macro alike.
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
handle of the scope still live — after ``.tile(...).unroll(4)`` the
chain continues on the *outer* tile loop.

``param(value, binding="NAME")`` emits ``transform.param.constant
{binding = "NAME"}``, the anchor the service's parameter-override path
(``bind_parameters``) and the autotuner rebind per configuration.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.dataflow import ForwardEngine
from ..analysis.invalidation import HandleState, InvalidationAnalysis
from ..core import dialect as transform
from ..core import schedules
from ..core.script_transforms import inlined_script
from ..core.types import ANY_OP
from ..dialects import builtin
from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value
from ..ir.hashing import op_digest
from ..ir.parser import parse
from ..ir.printer import print_op
from .errors import ScheduleError

__all__ = ["Handle", "Schedule"]


class Handle:
    """One transform handle (or param) tracked by the builder."""

    __slots__ = ("value", "kind", "is_param", "label", "_scope")

    def __init__(self, scope: "_Scope", value: Value,
                 kind: Optional[str] = None, is_param: bool = False,
                 label: Optional[str] = None):
        self._scope = scope
        self.value = value
        self.kind = kind
        self.is_param = is_param
        self.label = label

    @property
    def live(self) -> bool:
        """Usable in the scope that created it (see :meth:`_Scope._usable`)."""
        return self._scope._usable(self)

    def __repr__(self) -> str:
        name = self.label or self.kind or ("param" if self.is_param
                                           else "any")
        return f"<handle {name}: {'live' if self.live else 'dead'}>"


@functools.lru_cache(maxsize=None)
def _library_macros(library_ir: str) -> Dict[str, Operation]:
    """The macros of a schedule library, includes already inlined."""
    library = inlined_script(parse(library_ir, "<schedule-library>"))
    return {op.sym_name: op
            for op in library.walk_ops("transform.named_sequence")}


class _Scope:
    """Shared emission machinery for the entry sequence, macro bodies,
    and ``alternatives`` regions. The entry sequence and a macro body
    start from a fresh analysis state, a region from a fork of its
    parent's (``state``)."""

    def __init__(self, schedule: "Schedule", block: Block,
                 root: Optional[Handle],
                 parent: Optional["_Scope"] = None,
                 state: Optional[HandleState] = None):
        self._schedule = schedule
        self._builder = Builder.at_end(block)
        self._root = root
        self._parent = parent
        self._cursor: Optional[Handle] = None
        self._named: Dict[str, Handle] = {}
        #: Result handles emitted in this scope, oldest first.
        self._made: List[Handle] = []
        analysis = schedule._engine.analysis
        self._state = analysis.make_state() if state is None else state
        analysis.enter_block(block, self._state)
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

    def _usable(self, handle: Handle) -> bool:
        """The builder's one rule: the handle's value is defined in this
        scope's state and has no consumption fact there."""
        vid = id(handle.value)
        return vid in self._state.defined and vid not in self._state.consumed

    def _operand(self, ref: Union[Handle, str], op: str) -> Handle:
        handle = self._resolve(ref)
        if self._usable(handle):
            return handle
        fact = self._state.consumed.get(id(handle.value))
        why = (f"was already consumed by '{fact.op.name}'" if fact
               else "is out of scope (its region, macro or schedule "
               "is closed)")
        raise ScheduleError(
            f"use-after-consume: {handle.label or handle.kind or 'handle'} "
            f"{why} and cannot be passed to '{op}'"
        )

    def _step(self, op: Operation) -> None:
        """Run the just-emitted ``op`` through the analysis on this
        scope's state — where handles die (recoverability only grades
        severity, which the builder does not read). An ``include`` is
        stepped as the inliner expands it: each op of the callee's body,
        cloned onto the call's operands, then each result aliases the
        value its yield maps to."""
        if op.name != "transform.include":
            self._schedule._engine.run_op(op, self._state, recoverable=False)
            return
        body = self._schedule._macro(op.attr("target").name).body
        value_map = dict(zip(body.args, op.operands))
        for inner in body.ops[:-1]:
            clone = inner.clone(value_map)
            self._step(clone)
            clone.drop_all_references()
        for result, yielded in zip(op.results, body.terminator.operands):
            self._state.define(result)
            self._state.add_subset(value_map.get(yielded, yielded), result)

    def _emit(self, op: Operation, kinds: Sequence[Optional[str]] = (),
              names: Optional[Sequence[Optional[str]]] = None) -> List[Handle]:
        """Step the just-emitted ``op`` and return its results as
        handles: result ``i`` of payload kind ``kinds[i]``, registered
        as ``names[i]``."""
        self._step(op)
        results = []
        for index, value in enumerate(op.results):
            kind = kinds[index] if index < len(kinds) else None
            name = names[index] if names and index < len(names) else None
            result = Handle(self, value, kind=kind, label=name)
            self._made.append(result)
            if name is not None:
                self._named[name] = result
            results.append(result)
        return results

    def _emit_pair(self, op: Operation, what: str,
                   names: Optional[Tuple[str, str]], keep: str,
                   first: str, second: str) -> "_Scope":
        """Emit a transform that consumes a loop into two; the cursor
        moves to the one ``keep`` names."""
        pair = self._emit(op, ["scf.for", "scf.for"], names)
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
        if self._cursor is None or not self._usable(self._cursor):
            raise ScheduleError(
                f"'{op}' needs a current handle: start the chain with "
                ".match(...) or .use(name)"
            )
        return self._cursor

    def _fallback_cursor(self) -> None:
        self._cursor = next((handle for handle in reversed(self._made)
                             if self._usable(handle)), None)

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
        scope = self._operand(self.root if in_ is None else in_, "match")
        result = transform.match_op(self._builder, scope.value, names,
                                    position=position)
        kind = names if isinstance(names, str) else None
        self._cursor, = self._emit(result.defining_op(), [kind], [name])
        return self

    def select(self, op_name: str, name: Optional[str] = None) -> "_Scope":
        """``transform.select``: filter the cursor by payload op name."""
        handle = self._subject("select")
        result = transform.select(self._builder, handle.value, op_name)
        self._cursor, = self._emit(result.defining_op(), [op_name], [name])
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
        self._cursor, = self._emit(op, names=[name])
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
        self._step(result.defining_op())
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
        return self._emit_pair(op, "tile", names, keep, "outer", "inner")

    def split(self, div_by, keep: str = "main",
              names: Optional[Tuple[str, str]] = None) -> "_Scope":
        """``transform.loop.split`` into (main, rest)."""
        self._require_open("split")
        div_by = self._sizes_arg(div_by, "split")
        handle = self._cursor_handle("split")
        main, _ = transform.loop_split(self._builder, handle.value, div_by)
        return self._emit_pair(main.defining_op(), "split", names, keep,
                               "main", "rest")

    def peel(self, keep: str = "main",
             names: Optional[Tuple[str, str]] = None) -> "_Scope":
        """``transform.loop.peel`` into (main, remainder)."""
        handle = self._subject("peel")
        op = self._builder.create(
            "transform.loop.peel",
            operands=[handle.value],
            result_types=[ANY_OP, ANY_OP],
        )
        return self._emit_pair(op, "peel", names, keep, "main", "rest")

    def unroll(self, factor: Optional[int] = None,
               full: bool = False) -> "_Scope":
        """``transform.loop.unroll``: consumes the cursor loop; the
        cursor falls back to the most recent live handle."""
        handle = self._subject("unroll")
        self._emit(transform.loop_unroll(self._builder, handle.value,
                                         factor=factor, full=full))
        self._fallback_cursor()
        return self

    def interchange(self, with_: Union[Handle, str]) -> "_Scope":
        """``transform.loop.interchange`` of the cursor and another
        loop handle (both stay live)."""
        outer = self._subject("interchange")
        inner = self._operand(with_, "interchange")
        self._emit(transform.loop_interchange(self._builder, outer.value,
                                              inner.value))
        return self

    def hoist(self, target: Optional[Union[Handle, str]] = None) -> "_Scope":
        """``transform.loop.hoist`` (in place)."""
        handle = self._subject("hoist")
        operands = [handle] + ([self._operand(target, "hoist")]
                               if target is not None else [])
        self._emit(transform.loop_hoist(self._builder,
                                        *[h.value for h in operands]))
        return self

    def vectorize(self, width: Union[int, Handle, str] = 8) -> "_Scope":
        """``transform.loop.vectorize`` (in place); width may be a
        param handle."""
        handle = self._subject("vectorize")
        width = self._sizes_arg(width, "vectorize") \
            if not isinstance(width, int) else width
        self._emit(transform.loop_vectorize(self._builder, handle.value,
                                            width))
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
        self._cursor, = self._emit(op, ["linalg.generic"])
        return self

    def lower_to_loops(self) -> "_Scope":
        """``transform.structured.lower_to_loops`` (consumes)."""
        handle = self._subject("lower_to_loops")
        op = self._builder.create(
            "transform.structured.lower_to_loops",
            operands=[handle.value],
            result_types=[ANY_OP],
        )
        self._cursor, = self._emit(op, ["scf.for"])
        return self

    def to_library(self, library: str = "libxsmm") -> "_Scope":
        """``transform.to_library``: replace the cursor nest with a
        microkernel call (consumes)."""
        handle = self._subject("to_library")
        self._emit(transform.to_library(self._builder, handle.value, library))
        self._fallback_cursor()
        return self

    # -- pass/pattern application and annotations ---------------------------

    def apply_registered_pass(self, pass_name: str,
                              options: Optional[Dict[str, object]] = None,
                              name: Optional[str] = None) -> "_Scope":
        handle = self._subject("apply_registered_pass")
        result = transform.apply_registered_pass(
            self._builder, handle.value, pass_name, options)
        self._cursor, = self._emit(result.defining_op(), names=[name])
        return self

    def apply_patterns(self, *pattern_names: str) -> "_Scope":
        handle = self._subject("apply_patterns")
        self._emit(transform.apply_patterns(self._builder, handle.value,
                                            list(pattern_names)))
        return self

    def annotate(self, attr_name: str, value=None) -> "_Scope":
        """``transform.annotate`` the cursor's payload (in place)."""
        handle = self._subject("annotate")
        if isinstance(value, Handle):
            value = self._operand(value, "annotate").value
        self._emit(transform.annotate(self._builder, handle.value, attr_name,
                                      value))
        return self

    def print_(self, message: str = "") -> "_Scope":
        handle = self._subject("print")
        self._emit(transform.print_(self._builder, handle.value, message))
        return self

    # -- control flow -------------------------------------------------------

    def alternatives(self, *regions: Optional[Callable[["_Scope"], None]],
                     scope: Optional[Union[Handle, str]] = None) -> "_Scope":
        """``transform.alternatives``: each callable populates one
        region against a nested scope; ``None`` leaves an empty
        (always-succeeding) fallback region. Each region starts from
        the state before the op; a handle consumed in any region is
        dead after it."""
        self._require_open("alternatives")
        if not regions:
            raise ScheduleError("alternatives needs at least one region")
        scope_handle = (self._operand(scope, "alternatives")
                        if scope is not None else None)
        op = transform.alternatives(
            self._builder, n_regions=len(regions),
            scope=scope_handle.value if scope_handle else None)
        analysis = self._schedule._engine.analysis
        for index, (body, region) in enumerate(zip(regions, op.regions)):
            if body is None:
                continue
            state = self._state.copy()
            analysis.enter_alternatives_region(op, index, region.entry_block,
                                               state)
            nested = _Scope(self._schedule, region.entry_block, self._root,
                            parent=self, state=state)
            nested._cursor = scope_handle or self._cursor
            body(nested)
            nested._close()
        # The engine re-forks the regions and joins what they consume.
        self._step(op)
        return self

    def include(self, target: str,
                args: Sequence[Union[Handle, str]] = (),
                name: Optional[str] = None) -> "_Scope":
        """``transform.include`` of a macro defined with
        :meth:`Schedule.define` (or, after :meth:`Schedule.use_library`,
        a shipped library sequence). What the macro's body consumes
        dies here, at the call site."""
        self._require_open("include")
        body = self._schedule._macro(target).body
        handles = [self._operand(ref, f"include @{target}")
                   for ref in args]
        if not handles:
            handles = [self._cursor_handle(f"include @{target}")]
        results = self._emit(
            transform.include(self._builder, target,
                              [h.value for h in handles],
                              n_results=body.terminator.num_operands),
            names=[name])
        if results:
            self._cursor = results[0]
        elif self._cursor is not None and not self._usable(self._cursor):
            self._fallback_cursor()
        return self

    def _close(self) -> None:
        """Finalize the scope: nothing is defined in it any more."""
        self._state = self._schedule._engine.analysis.make_state()
        self._open = False


class Schedule(_Scope):
    """The fluent schedule builder (entry ``transform.sequence``)."""

    def __init__(self):
        op, _, root_value = transform.sequence()
        self._engine = ForwardEngine(InvalidationAnalysis(may_alias=False))
        super().__init__(self, op.body, None)
        self._root = Handle(self, root_value, label="root")
        self._sequence_op = op
        #: Macros in definition order, and the linked library's
        #: (None = not linked).
        self._macros: Dict[str, Operation] = {}
        self._library: Optional[Dict[str, Operation]] = None
        self._built: Optional[Operation] = None

    # -- macro definitions ---------------------------------------------------

    def _require_unbuilt(self, what: str) -> None:
        if self._built is not None:
            raise ScheduleError(
                f"cannot emit '{what}': this schedule is already built"
            )

    def _macro(self, target: str) -> Operation:
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
        op, _, arg_values = transform.named_sequence(name, n_args=n_args)
        scope = _Scope(self, op.body, None)
        for i, value in enumerate(arg_values):
            scope._named[f"arg{i}"] = Handle(scope, value, label=f"arg{i}")
        scope._root = scope._cursor = scope._named["arg0"]
        returned = body(scope)
        if returned is None:
            yielded: List[Handle] = []
        elif isinstance(returned, Handle):
            yielded = [returned]
        else:
            yielded = list(returned)
        transform.yield_(scope._builder,
                         [scope._operand(h, "yield").value for h in yielded])
        scope._close()
        self._macros[name] = op
        return self

    # -- products ------------------------------------------------------------

    def build(self) -> Operation:
        """Finalize and return the transform script (idempotent)."""
        if self._built is not None:
            return self._built
        transform.yield_(self._builder)
        if self._macros or self._library is not None:
            module = builtin.module()
            for macro in self._macros.values():
                module.body.append(macro)
            module.body.append(self._sequence_op)
            if self._library is not None:
                schedules.link_schedule_library(module)
            self._built = module
        else:
            self._built = self._sequence_op
        self._close()
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
