"""A small forward dataflow engine over transform IR (paper §3.3/§3.4).

The engine walks a transform script in *execution order* — the same
order :class:`~repro.core.interpreter.TransformInterpreter` would apply
it — and threads an :class:`AbstractState` through every op. Clients
(the use-after-consume analysis in :mod:`repro.analysis.invalidation`
and the pipeline extractor in :mod:`repro.analysis.pipeline`) subclass
:class:`ForwardAnalysis` and provide the transfer functions; the engine
owns the control-flow structure:

* ``transform.sequence`` bodies run inline on the current state; a
  ``failures = "suppress"`` sequence makes its body *recoverable*
  (silenceable failures inside it do not abort the enclosing run);
* ``transform.alternatives`` forks the **pre-op snapshot** into each
  region, analyzes regions independently, and joins facts only from
  regions that can complete — mirroring the transactional rollback of
  :class:`~repro.core.transaction.PayloadTransaction`;
* ``transform.foreach`` analyzes its body once from a *may*-reach fork
  and joins the exit facts weakly (the loop may run zero times); an
  optional second pass catches cross-iteration issues;
* ``transform.named_sequence`` definitions encountered inline are
  *skipped* — they are macro definitions, never straight-line code.
  Clients read the script with its macros already inlined
  (:func:`~repro.core.script_transforms.inlined_script`), so a macro
  is analyzed where it is included; an include left unexpanded (its
  target unknown, recursive or of the wrong arity — lint errors) is
  an op with no effect.

Reachability is tracked as MUST/MAY plus a *skip token* counter: the
counter bumps after every op that may fail silenceably while inside a
recoverable scope. A consumption fact recorded at token ``t`` is only a
*definite* error for a use still at token ``t`` — any possible
silenceable skip between consume and use downgrades the diagnostic to a
warning, which is exactly the precision contract the fuzzer
(``python -m repro.testing.fuzz``) enforces on every case. How an op can
terminate is its own declaration (``ALWAYS_FAILS`` and
``may_fail_silenceably()`` on its class in :mod:`repro.core.dialect`);
an op nobody declared is assumed to possibly fail silenceably, the safe
direction — it can only downgrade a static diagnostic from "definite
error" to "possible error", never invent one on a schedule that could
execute cleanly.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..core.dialect import SequenceOp, declared
from ..ir.core import Block, Operation


def _suppresses(op: Operation) -> bool:
    """Is ``op`` a sequence that swallows silenceable body failures?"""
    return isinstance(op, SequenceOp) and op.suppresses_failures


class Reach(enum.Enum):
    """How surely control reaches a program point on a *clean* run."""

    MUST = "must"
    MAY = "may"


class AbstractState:
    """Base class for per-point dataflow facts.

    Subclasses add their domain (handle facts, pipeline steps, ...) and
    must deep-copy it in :meth:`copy`; the three fields here are owned
    by the engine.
    """

    def __init__(self) -> None:
        self.reach: Reach = Reach.MUST
        #: Counts possible silenceable-skip points passed so far while
        #: in a recoverable scope (see module docstring).
        self.skip_tokens: int = 0
        #: Set when the remainder of the current walk is dead code
        #: (an always-failing op was just executed).
        self.terminated: bool = False

    def copy(self) -> "AbstractState":
        raise NotImplementedError

    def _copy_base_into(self, other: "AbstractState") -> None:
        other.reach = self.reach
        other.skip_tokens = self.skip_tokens
        other.terminated = self.terminated


class ForwardAnalysis:
    """Transfer functions supplied by an engine client."""

    #: Re-run foreach bodies once more from the joined exit state so
    #: facts from iteration *n* flow into uses in iteration *n + 1*.
    foreach_second_pass = False

    def make_state(self) -> AbstractState:
        raise NotImplementedError

    def enter_block(self, block: Block, state: AbstractState) -> None:
        """Called before a block's ops run (define block arguments)."""

    def before_regions(self, op: Operation, state: AbstractState,
                       recoverable: bool) -> None:
        """Op transfer, part 1: runs before any region of ``op``."""

    def after_regions(self, op: Operation, state: AbstractState,
                      recoverable: bool) -> None:
        """Op transfer, part 2: runs after the regions, before the
        engine accounts for ``op``'s own failure effect."""

    def enter_alternatives_region(self, op: Operation, index: int,
                                  block: Block,
                                  state: AbstractState) -> None:
        """Called on each region's forked state before it runs."""

    def join_alternatives(
        self, op: Operation, state: AbstractState,
        exits: List[Tuple[int, Optional[AbstractState]]],
    ) -> None:
        """Fold region exit states into ``state`` (the post-op state).

        ``exits`` holds ``(region_index, exit_state)`` for every region
        that can complete; ``exit_state`` is ``None`` for an empty
        fallback region (it completes with the pre-op facts untouched).
        """

    def join_foreach(self, op: Operation, state: AbstractState,
                     exit_state: Optional[AbstractState]) -> None:
        """Fold the body's exit facts into the post-op state.

        ``exit_state`` is ``None`` when the body can never complete —
        then the only runs continuing past ``op`` saw zero iterations
        and no body fact escapes.
        """


class ForwardEngine:
    """Drives a :class:`ForwardAnalysis` over a script in execution
    order, maintaining reachability and per-region fact snapshots."""

    def __init__(self, analysis: ForwardAnalysis):
        self.analysis = analysis

    # -- entry points --------------------------------------------------------

    def run_entry(self, entry: Operation) -> AbstractState:
        """Analyze a ``sequence``/``named_sequence`` entry point."""
        state = self.analysis.make_state()
        if not entry.regions or not entry.regions[0].blocks:
            return state
        if entry.name == "transform.named_sequence":
            recoverable = True  # callers may recover from body failures
        else:
            recoverable = _suppresses(entry)
        self.run_block(entry.regions[0].entry_block, state, recoverable)
        return state

    # -- traversal ------------------------------------------------------------

    def run_block(self, block: Block, state: AbstractState,
                  recoverable: bool) -> bool:
        """Run a block's ops through the analysis.

        Returns False when the block can never complete (an op on the
        straight-line path always fails); ops past that point are dead.
        """
        self.analysis.enter_block(block, state)
        for op in list(block.ops):
            if op.name == "transform.yield":
                # Yield operands are read by the parent op when it maps
                # its results — that read is a use.
                self.analysis.before_regions(op, state, recoverable)
                break
            self.run_op(op, state, recoverable)
            if state.terminated:
                state.terminated = False
                return False
        return True

    def run_op(self, op: Operation, state: AbstractState,
               recoverable: bool) -> None:
        analysis = self.analysis
        analysis.before_regions(op, state, recoverable)

        if op.name == "transform.alternatives":
            self._run_alternatives(op, state)
        elif op.name == "transform.foreach":
            self._run_foreach(op, state, recoverable)
        elif op.name == "transform.named_sequence":
            pass  # a macro definition, not straight-line code
        elif op.name == "transform.apply_patterns":
            pass  # body holds pattern markers, not transforms
        elif op.regions:
            # Generic region op (nested sequence, unknown op with a
            # body): run inline on the shared state.
            inner_recoverable = recoverable or _suppresses(op)
            completed = True
            for region in op.regions:
                for block in region.blocks:
                    if not self.run_block(block, state, inner_recoverable):
                        completed = False
                        break
                if not completed:
                    break
            if not completed and not _suppresses(op):
                state.terminated = True

        analysis.after_regions(op, state, recoverable)
        if state.terminated:
            return
        if declared(op).ALWAYS_FAILS:
            state.terminated = True
            return
        if recoverable and declared(op).may_fail_silenceably():
            state.skip_tokens += 1

    def _run_alternatives(self, op: Operation,
                          state: AbstractState) -> None:
        """Fork the pre-op snapshot per region; join completing exits."""
        if not op.regions:
            return
        analysis = self.analysis
        exits: List[Tuple[int, Optional[AbstractState]]] = []
        for index, region in enumerate(op.regions):
            block = region.blocks[0] if region.blocks else None
            if block is None or not block.ops:
                # The empty always-succeeding fallback: completes with
                # the pre-op facts unchanged.
                exits.append((index, None))
                continue
            branch = state.copy()
            if index > 0:
                # Later regions only run after an earlier one failed.
                branch.reach = Reach.MAY
            analysis.enter_alternatives_region(op, index, block, branch)
            if self.run_block(block, branch, recoverable=True):
                exits.append((index, branch))
        if not exits:
            # Every region fails on its straight-line path: the op as a
            # whole always fails.
            state.terminated = True
            return
        analysis.join_alternatives(op, state, exits)

    def _run_foreach(self, op: Operation, state: AbstractState,
                     recoverable: bool) -> None:
        body = None
        if op.regions and op.regions[0].blocks:
            body = op.regions[0].blocks[0]
        if body is None or not body.ops:
            return
        branch = state.copy()
        branch.reach = Reach.MAY  # the loop may run zero times
        completed = self.run_block(body, branch, recoverable)
        self.analysis.join_foreach(op, state,
                                   branch if completed else None)
        if completed and self.analysis.foreach_second_pass:
            # Cross-iteration pass: facts from a completed iteration
            # reach the next iteration's uses.
            second = state.copy()
            second.reach = Reach.MAY
            self.run_block(body, second, recoverable)
