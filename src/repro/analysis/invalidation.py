"""Use-after-consume analysis (paper §3.4).

Transform scripts are ordinary SSA IR, so use-after-consume of handles
is an off-the-shelf "use after free" dataflow problem: handle
definitions are allocations, consumption is a free, and handles to
nested/equal payload alias their source. This module runs that
analysis on the :class:`~repro.analysis.dataflow.ForwardEngine`
*without executing anything* — catching, e.g., the double-unroll of
Fig. 1 line 11 at script-verification time.

The analysis is:

* **intraprocedural over the inlined script** — a macro is a function,
  so :func:`analyze_script` reads the script with every
  ``transform.include`` expanded by the ordinary inliner
  (:func:`~repro.core.script_transforms.inlined_script`). A defect
  inside a macro is found once per call site, graded by the caller's
  context, and located ``callsite(<op in the macro> at <include>)``;
* **alternatives-aware** — each region starts from the pre-op fact
  snapshot and facts join only from regions that can complete,
  matching the transactional rollback of ``PayloadTransaction``: a
  handle consumed in region 1 is legal to use in region 2;
* **severity-graded** — an issue is an ``"error"`` only when the
  consumption *must* happen on every clean run reaching the use
  (same skip-token count, no branch join in between); everything
  weaker is a ``"warning"``. The fuzzer checks exactly
  this contract: dynamic invalidation errors are always predicted
  (any severity), and cleanly-executing schedules never carry an
  ``"error"``.

Alias edges come in two flavours, mirroring the dynamic semantics
(consuming a handle invalidates handles to the *same* payload ops or
ops *nested in* them, but not enclosing ones); which one an op draws is
its class's ``DERIVES`` declaration (:mod:`repro.core.dialect`):

* **nested** edges (``match_op``: the result points strictly inside
  the operand's payload; ``get_parent_op`` declares the reverse,
  ``"enclosing"``; between results, ``NESTED_RESULTS``: ``loop.tile``'s
  point band sits inside its tile band) — consumption flows source ->
  derived only;
* **subset** edges (``foreach`` block arguments, ``split_handle``,
  ``merge_handles``, ``select``, ``cast``: the result points at the
  same payload ops) — consumption flows both ways.

With ``may_alias=True`` the analysis additionally over-approximates
*undeclared* aliasing: two independently-matched handles can point at
overlapping payload, so consuming any handle may-invalidates every
other live non-parameter handle except the sequence root (payload
roots are strict ancestors of anything consumed, and ancestors are
never invalidated). Those coarse facts only ever produce warnings,
but they make the analysis *sound* against the dynamic semantics —
the property the fuzzer asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Set, Tuple

from ..core.dialect import declared
from ..core.interpreter import top_level_ops
from ..core.script_transforms import included_symbols, inlined_script
from ..ir.core import Block, Operation, Value
from .dataflow import AbstractState, ForwardAnalysis, ForwardEngine, Reach

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Consumption:
    """The fact "this handle's payload was (maybe) consumed"."""

    op: Operation            #: the consuming op
    must: bool               #: consumed on every clean path to here?
    kind: str                #: "direct" | "alias" | "may-alias"
    token: int               #: skip-token count at the consume point
    reach: Reach             #: reachability of the consume point
    branch_joined: bool = False  #: crossed a region join?


@dataclass
class InvalidationIssue:
    """One use-after-consume diagnosis."""

    message: str
    use_op: Operation
    consume_op: Operation
    severity: str = ERROR
    kind: str = "direct"

    def __str__(self) -> str:
        return (
            f"'{self.use_op.name}' uses a handle invalidated by "
            f"'{self.consume_op.name}': {self.message}"
        )


class HandleState(AbstractState):
    """Per-point facts: live handles, derivation edges, consumption."""

    def __init__(self) -> None:
        super().__init__()
        #: source -> values whose payload is nested in (or equal to) it.
        self.downward: Dict[int, List[Value]] = {}
        #: id -> live value, in definition order.
        self.defined: Dict[int, Value] = {}
        #: Handles whose payload is the payload root (never invalidated:
        #: the root is a strict ancestor of anything consumed).
        self.root_like: Set[int] = set()
        #: id -> consumption fact.
        self.consumed: Dict[int, Consumption] = {}

    def copy(self) -> "HandleState":
        other = HandleState()
        self._copy_base_into(other)
        other.downward = {k: list(v) for k, v in self.downward.items()}
        other.defined = dict(self.defined)
        other.root_like = set(self.root_like)
        other.consumed = dict(self.consumed)
        return other

    def define(self, value: Value) -> None:
        self.defined[id(value)] = value

    def add_nested(self, source: Value, result: Value) -> None:
        self.downward.setdefault(id(source), []).append(result)

    def add_subset(self, a: Value, b: Value) -> None:
        # Subset aliases receive downward consumption from each other's
        # sources; mutual nested edges keep the closure simple.
        self.downward.setdefault(id(a), []).append(b)
        self.downward.setdefault(id(b), []).append(a)

    def invalidation_set(self, value: Value) -> List[Value]:
        """Everything invalidated when ``value`` is consumed: the value,
        its subset aliases, and all transitively nested handles."""
        out: List[Value] = [value]
        seen: Set[int] = {id(value)}
        stack = [value]
        while stack:
            current = stack.pop()
            for child in self.downward.get(id(current), []):
                if id(child) not in seen:
                    seen.add(id(child))
                    out.append(child)
                    stack.append(child)
        return out


class InvalidationAnalysis(ForwardAnalysis):
    """The use-after-consume client of the dataflow engine."""

    foreach_second_pass = True

    def __init__(self, may_alias: bool = True):
        self.may_alias = may_alias
        self.issues: List[InvalidationIssue] = []
        self._reported: Set[Tuple[int, int, int]] = set()

    # -- state ----------------------------------------------------------------

    def make_state(self) -> HandleState:
        return HandleState()

    def enter_block(self, block: Block, state: AbstractState) -> None:
        assert isinstance(state, HandleState)
        parent = block.parent_op
        root = parent is not None and parent.name == "transform.sequence"
        for arg in block.args:
            state.define(arg)
            if root:
                # The sequence root handle maps the whole payload: a
                # strict ancestor of any consumed op, never invalidated.
                state.root_like.add(id(arg))

    # -- transfer -------------------------------------------------------------

    def before_regions(self, op: Operation, state: AbstractState,
                       recoverable: bool) -> None:
        assert isinstance(state, HandleState)
        for operand in op.operands:
            fact = state.consumed.get(id(operand))
            if fact is not None:
                self._report(op, operand, fact, state)
        facts = declared(op)
        results = op.results
        for inner, outer in facts.NESTED_RESULTS:
            if max(inner, outer) < len(results):
                state.add_nested(results[outer], results[inner])
        derives = facts.DERIVES
        if derives is not None:
            for operand in op.operands:
                for result in op.results:
                    if derives == "nested":
                        state.add_nested(operand, result)
                    elif derives == "subset":
                        state.add_subset(operand, result)
                    else:  # "enclosing": the operand is the nested one
                        state.add_nested(result, operand)
        elif op.name == "transform.foreach":
            # Block arguments alias the iterated operands positionally.
            if op.regions and op.regions[0].blocks:
                body = op.regions[0].blocks[0]
                for operand, arg in zip(op.operands, body.args):
                    state.add_subset(operand, arg)

    def after_regions(self, op: Operation, state: AbstractState,
                      recoverable: bool) -> None:
        """Mark the operands ``op`` declares it consumes consumed,
        together with their alias closure, then define its results."""
        assert isinstance(state, HandleState)
        consumes = declared(op).CONSUMES
        closure_ids: Set[int] = set()
        if consumes:
            token = state.skip_tokens
            for index in consumes:
                if index >= op.num_operands:
                    continue
                value = op.operand(index)
                for aliased in state.invalidation_set(value):
                    closure_ids.add(id(aliased))
                    self._mark(state, aliased, Consumption(
                        op=op, must=True,
                        kind="direct" if aliased is value else "alias",
                        token=token, reach=state.reach,
                    ))
            if self.may_alias:
                self._mark_may_aliases(state, op, closure_ids, token)
        for result in op.results:
            state.define(result)

    def enter_alternatives_region(self, op: Operation, index: int,
                                  block: Block,
                                  state: AbstractState) -> None:
        assert isinstance(state, HandleState)
        # A region block argument re-binds the scoped operand's payload.
        if block.args and op.num_operands:
            state.add_subset(op.operand(0), block.args[0])

    # -- joins ----------------------------------------------------------------

    def join_alternatives(self, op, state, exits) -> None:
        assert isinstance(state, HandleState)
        tally: Dict[int, List[Consumption]] = {}
        for _index, exit_state in exits:
            if exit_state is None:
                continue  # empty fallback: completes, consumes nothing
            for vid, fact in exit_state.consumed.items():
                if vid in state.consumed or vid not in state.defined:
                    continue
                tally.setdefault(vid, []).append(fact)
        for vid, facts in tally.items():
            must = len(facts) == len(exits) and all(f.must for f in facts)
            state.consumed[vid] = replace(
                facts[0], must=must, branch_joined=True
            )
        self._map_region_yields(op, state, exits)

    def _map_region_yields(self, op, state: HandleState, exits) -> None:
        """Results of ``alternatives`` come from the winning region's
        yield: derive edges from the outer values they alias."""
        if not op.results:
            return
        for _index, exit_state in exits:
            if exit_state is None:
                continue
            region = op.regions[_index]
            terminator = (region.blocks[0].terminator
                          if region.blocks else None)
            if terminator is None or terminator.name != "transform.yield":
                continue
            for result, yielded in zip(op.results,
                                       terminator.operands):
                for source in self._alias_sources(exit_state, yielded,
                                                  state):
                    if source is yielded:
                        state.add_subset(source, result)
                    else:
                        state.add_nested(source, result)

    @staticmethod
    def _alias_sources(exit_state: HandleState, yielded: Value,
                       outer: HandleState) -> List[Value]:
        """Outer-scope values whose payload covers ``yielded``."""
        if id(yielded) in outer.defined:
            return [yielded]
        return [
            value for value in outer.defined.values()
            if any(member is yielded
                   for member in exit_state.invalidation_set(value))
        ]

    def join_foreach(self, op, state, exit_state) -> None:
        assert isinstance(state, HandleState)
        if exit_state is not None:
            for vid, fact in exit_state.consumed.items():
                if vid in state.consumed or vid not in state.defined:
                    continue
                # The loop may run zero times: weak update only.
                state.consumed[vid] = replace(
                    fact, must=False, branch_joined=True
                )
        # Results gather values yielded per iteration: payload nested
        # in (or equal to) the iterated operands' payload.
        for operand in op.operands:
            for result in op.results:
                state.add_nested(operand, result)

    # -- fact helpers ---------------------------------------------------------

    def _mark(self, state: HandleState, value: Value,
              fact: Consumption) -> None:
        existing = state.consumed.get(id(value))
        if existing is None or (fact.must and not existing.must):
            state.consumed[id(value)] = fact

    def _mark_may_aliases(self, state: HandleState, op: Operation,
                          exclude: Set[int], token: int) -> None:
        """Consuming *any* handle may invalidate every other live
        handle: independently-matched handles can point at overlapping
        payload. Parameters carry no payload; root handles are strict
        ancestors of anything consumed and are never invalidated."""
        from ..core.types import ParamType

        for vid, value in state.defined.items():
            if (vid in exclude or vid in state.root_like
                    or vid in state.consumed
                    or isinstance(value.type, ParamType)):
                continue
            state.consumed[vid] = Consumption(
                op=op, must=False, kind="may-alias",
                token=token, reach=state.reach,
            )

    def _report(self, use_op: Operation, operand: Value,
                fact: Consumption, state: HandleState) -> None:
        key = (id(use_op), id(operand), id(fact.op))
        if key in self._reported:
            return
        self._reported.add(key)
        self.issues.append(InvalidationIssue(
            message=_issue_message(fact),
            use_op=use_op,
            consume_op=fact.op,
            severity=self._severity(state, fact),
            kind=fact.kind,
        ))

    @staticmethod
    def _severity(state: HandleState, fact: Consumption) -> str:
        if (fact.must and not fact.branch_joined
                and fact.kind != "may-alias"
                and fact.reach is Reach.MUST
                and state.reach is Reach.MUST
                and state.skip_tokens == fact.token):
            return ERROR
        return WARNING


def _issue_message(fact: Consumption) -> str:
    if fact.kind == "may-alias":
        return ("handle may alias a payload consumed earlier in the "
                "script")
    if fact.must and not fact.branch_joined:
        return ("handle (or an aliasing handle) was consumed earlier "
                "in the script")
    return ("handle (or an aliasing handle) may have been consumed "
            "earlier in the script")


def analyze_script(script: Operation, *,
                   may_alias: bool = True) -> List[InvalidationIssue]:
    """Run the use-after-consume analysis over a whole script.

    Reads the script with its macros inlined (one reading, shared with
    pipeline extraction) and analyzes each entry once: every top-level
    ``transform.sequence`` and every ``named_sequence`` nothing
    includes (nested sequences run inline with their parent's facts,
    mirroring execution). Returns issues in discovery order.
    """
    included = included_symbols(script)
    script = inlined_script(script)
    analysis = InvalidationAnalysis(may_alias=may_alias)
    engine = ForwardEngine(analysis)
    entries = [op for op in top_level_ops(script)
               if op.name == "transform.sequence"]
    entries += [op for op in script.walk_ops("transform.named_sequence")
                if op.sym_name not in included]
    for entry in entries:
        engine.run_entry(entry)
    return analysis.issues


__all__ = [
    "Consumption",
    "ERROR",
    "WARNING",
    "HandleState",
    "InvalidationAnalysis",
    "InvalidationIssue",
    "analyze_script",
]
