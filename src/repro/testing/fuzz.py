"""Seeded schedule/payload fuzzing for the transform interpreter.

MLIR-Smith-style hardening (arXiv:2601.02218). Every case seed builds
two (payload, script) pairs, the *legs* of the case (:data:`LEGS`):

* **textual** — a random payload module from the registered dialects
  and a random-but-type-correct script built op by op
  (:class:`PayloadFuzzer`, :class:`ScheduleFuzzer`); 40 % of them are
  rollback cases (:func:`build_rollback_case`);
* **builder** — a random chain of :class:`repro.frontend.Schedule`
  calls (:class:`FrontendScheduleFuzzer`) on a fixed matmul payload
  (:func:`_frontend_payload`).

Each leg's script runs under the interpreter's exception barrier, and
both legs face one list of invariants:

* **containment** — generation, interpretation, the static analysis
  and normalization either return or raise a clean
  :class:`~repro.core.errors.TransformInterpreterError`; any other
  exception is a failure of the case, never a crash of the run;
* **consistency** — after a non-definite outcome the payload still
  verifies;
* **static soundness** — a dynamic handle-invalidation error must be
  predicted by at least one static issue of
  :mod:`repro.analysis.invalidation` (any severity; the coarse
  may-alias warnings participate);
* **static precision** — a schedule that executes cleanly must carry
  zero *definite* (``error``-severity) static diagnostics;
* **outlining keeps the outcome** — the same schedule with a random
  contiguous slice of its entry sequence moved into a macro
  (:func:`outline_slice`) ends in the same status class with a
  byte-identical payload, and passes both static oracles, so the
  analyses are cross-checked on scripts whose defects sit inside an
  included macro;
* **stable classification** — regenerating and re-running a case from
  its seed reproduces the same outcome kind, message and payload print;
* **textual round-trip** — the payload, the script and every verifying
  output satisfy ``print(parse(print(m))) == print(m)`` with an equal
  digest, so a front-end change that narrows or shifts the
  language fails here;
* **relocatable function text** — every all-function payload and
  output is the join of its function-tier entries as printed, its
  entries in any other order assemble to the print of the module in
  that order, and its digest composes from theirs
  (:func:`relocation_violations`), which is what the compile service's
  function tier serves results from without parsing;
* **op-list and def-use links** — in every payload and every output,
  each block's intrusive op list is consistent
  (:func:`op_list_violations`): forward links mirror backward links,
  parent pointers match, the ``block.ops`` memo is the linked order and
  a valid order index rises along it; every operand is in its value's
  use list and every use is by an op attached under the module;
* **normalization keeps the outcome** — unless the schedule as written
  ends in a definite error, the same schedule after :func:`_normalize`
  (``expand_includes``, then ``PassManager(["canonicalize", "cse"])``)
  ends in the same status class with a byte-identical payload,
  :data:`FUZZ_BINDINGS` bound after either (the as-written vs
  normalized oracle a service that normalizes scripts rests on).

Only textual cases roll back: a schedule whose first alternative
mutates the payload and then fails silenceably — half of them scoped
to a loop, whose fallback region annotates the restored scope — must
succeed and leave the payload print byte-identical, made of the same
op objects in the same order, with the same use objects in the same
order in every use list (**transactional rollback**). Only
builder cases have a Python API to hold to its promises
(:func:`_builder_checks`): the builder rejects every stale handle, its
script is lint-clean and analysis-clean, and every rejected probe,
replayed in the script, is flagged statically and never run.

Every case is derived from a single ``(seed, index)`` pair, so a CI
failure is reproducible locally with::

    python -m repro.testing.fuzz --seed N --cases M
    python -m repro.testing.fuzz --case-seed K   # one failing case
"""

from __future__ import annotations

import itertools
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core import dialect as transform
from ..core.errors import TransformInterpreterError
from ..core.interpreter import TransformInterpreter, find_entry
from ..core.script_transforms import expand_includes
from ..dialects import arith, builtin, func, scf
from ..ir.attributes import SymbolRefAttr
from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value
from ..ir.printer import print_op
from ..passes.manager import PassManager
from ..service.worker import bind_parameters
from .faults import FuzzFailure, case_seeds

#: Payload op names the schedule fuzzer may try to match (a mix of
#: names the payload generator emits and names it never does, so both
#: populated and empty matches are exercised).
MATCHABLE_NAMES = (
    "scf.for",
    "arith.constant",
    "arith.addf",
    "arith.mulf",
    "arith.addi",
    "func.func",
    "memref.load",  # never generated: exercises empty matches
)

#: The params every fuzz run binds, as a compile job does: after the
#: script is normalized, so sharing two bound constants would lose one.
FUZZ_BINDINGS = {"tile_m": 16, "tile_n": 32}


# ---------------------------------------------------------------------------
# Payload generation
# ---------------------------------------------------------------------------


class PayloadFuzzer:
    """Builds small random-but-verifying payload modules.

    The shapes mirror the paper's workloads: functions containing
    nests of ``scf.for`` loops with arithmetic bodies. Loop bounds are
    random constants so loop transforms (tile/split/unroll/peel) have
    real trip counts to work with.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def module(self) -> Operation:
        module = builtin.module()
        for index in range(self.rng.randint(1, 2)):
            function = func.func(f"fuzz_fn{index}", [])
            module.body.append(function)
            builder = Builder.at_end(function.body)
            for _ in range(self.rng.randint(1, 2)):
                self._item(builder, depth=0)
            func.return_(builder)
        module.verify()
        return module

    def _item(self, builder: Builder, depth: int) -> None:
        if depth < 3 and self.rng.random() < 0.75:
            self._loop(builder, depth)
        else:
            self._arith_chunk(builder)

    def _loop(self, builder: Builder, depth: int) -> None:
        lower = arith.index_constant(builder, 0)
        upper = arith.index_constant(builder, self.rng.choice((2, 3, 4, 6, 8)))
        step = arith.index_constant(builder, 1)
        loop = scf.for_(builder, lower, upper, step)
        body = Builder.at_end(loop.body)
        for _ in range(self.rng.randint(1, 2)):
            self._item(body, depth + 1)
        if self.rng.random() < 0.5:
            # Index arithmetic on the induction variable.
            offset = arith.index_constant(body, self.rng.randint(1, 4))
            arith.addi(body, loop.induction_var, offset)
        scf.yield_(body)

    def _arith_chunk(self, builder: Builder) -> None:
        values: List[Value] = [
            arith.constant(builder, float(self.rng.randint(0, 9)))
            for _ in range(self.rng.randint(2, 3))
        ]
        for _ in range(self.rng.randint(1, 3)):
            lhs, rhs = self.rng.choice(values), self.rng.choice(values)
            combine = self.rng.choice((arith.addf, arith.mulf))
            values.append(combine(builder, lhs, rhs))


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------


class ScheduleFuzzer:
    """Builds random transform scripts over the live-handle state.

    Generated scripts are *type-correct* (loop transforms only ever see
    handles produced by matching ``scf.for``) but intentionally explore
    the whole failure space: empty matches, consumed-handle reuse,
    invalid ``position`` values and unconditional silenceable failures
    all appear with small probability. With ``safe=True`` the generator
    restricts itself to schedules that can only fail *silenceably* —
    the requirement for rollback cases, where a definite error would
    abort instead of restoring.
    """

    def __init__(self, rng: random.Random, safe: bool = False):
        self.rng = rng
        self.safe = safe

    def sequence(self) -> Operation:
        script, builder, root = transform.sequence()
        self.fill_block(builder, root, self.rng.randint(2, 6))
        transform.yield_(builder)
        return script

    def fill_block(self, builder: Builder, root: Value, n_steps: int,
                   nesting: int = 0) -> None:
        #: (handle, payload-op-name-or-None) for live (unconsumed)
        #: handles; None means the handle may hold anything.
        loops: List[Value] = []
        anything: List[Value] = [root]
        consumed: List[Value] = []

        for _ in range(n_steps):
            choice = self.rng.random()
            if choice < 0.35:
                scope = self.rng.choice(anything)
                name = self.rng.choice(MATCHABLE_NAMES)
                position = self.rng.choice(
                    ("all", "all", "first", "second", "last")
                )
                if not self.safe and self.rng.random() < 0.05:
                    position = "middle"  # invalid: definite error
                handle = transform.match_op(
                    builder, scope, name, position=position
                )
                (loops if name == "scf.for" else anything).append(handle)
            elif choice < 0.6 and loops:
                self._loop_transform(builder, loops, consumed)
            elif choice < 0.7:
                target = self.rng.choice(anything + loops)
                transform.annotate(
                    builder, target, "fuzz_mark", self.rng.randint(0, 99)
                )
            elif choice < 0.78 and len(anything) >= 2:
                merged = builder.create(
                    "transform.merge_handles",
                    operands=self.rng.sample(anything, 2),
                    result_types=[transform.ANY_OP],
                ).result
                anything.append(merged)
            elif choice < 0.86:
                target = self.rng.choice(anything + loops)
                builder.create(
                    "transform.num_payload_ops",
                    operands=[target],
                    result_types=[transform.PARAM_I64],
                )
            elif choice < 0.92 and nesting < 2:
                self._nested_alternatives(builder, root, nesting)
            elif choice < 0.95:
                self._normalization_probe(builder, root, anything + loops)
            elif not self.safe and choice < 0.98 and consumed:
                # Deliberate use-after-consume: must surface as a clean
                # definite error, never a crash.
                transform.annotate(
                    builder, self.rng.choice(consumed), "after_consume"
                )
            else:
                builder.create(
                    "transform.test.emit_silenceable",
                    attributes={"message": "fuzz-silenceable"},
                )
        if not self.safe and self.rng.random() < 0.25:
            # Close the block with a guaranteed consume-then-use chain
            # so use-after-consume (and the static-soundness oracle)
            # is exercised far more often than the 4%-slot above
            # manages on its own.
            if not consumed:
                if not loops:
                    loops.append(transform.match_op(
                        builder, root, "scf.for", position="all"
                    ))
                self._loop_transform(builder, loops, consumed)
            transform.annotate(
                builder, self.rng.choice(consumed), "after_consume"
            )

    def _loop_transform(self, builder: Builder, loops: List[Value],
                        consumed: List[Value]) -> None:
        loop = self.rng.choice(loops)
        kind = self.rng.choice(("tile", "split", "unroll", "peel"))
        if kind == "tile":
            sizes = self.rng.choice(([2], [3], [0], [2, 2]))
            transform.loop_tile(builder, loop, sizes)
        elif kind == "split":
            transform.loop_split(builder, loop, self.rng.choice((2, 3)))
        elif kind == "unroll":
            if self.rng.random() < 0.5:
                transform.loop_unroll(builder, loop, full=True)
            else:
                transform.loop_unroll(
                    builder, loop, factor=self.rng.choice((1, 2, 4))
                )
        else:
            op = builder.create(
                "transform.loop.peel",
                operands=[loop],
                result_types=[transform.ANY_OP, transform.ANY_OP],
            )
            del op
        # All four consume their loop operand.
        loops.remove(loop)
        consumed.append(loop)

    def _normalization_probe(self, builder: Builder, root: Value,
                             targets: List[Value]) -> None:
        """Ops a normalization rule sees: equal constants, unbound or
        bound (:data:`FUZZ_BINDINGS`), each read by an ``annotate``; an
        ``alternatives`` of empty regions; an ``apply_patterns`` with
        no patterns, which still erases dead pure payload ops."""
        kind = self.rng.random()
        if kind < 0.5:
            value = self.rng.choice((4, 8))
            pair = self.rng.choice(
                ((None, None), (None, "tile_m"), ("tile_m", "tile_n")))
            for index, binding in enumerate(pair):
                attributes = {"value": value}
                if binding is not None:
                    attributes["binding"] = binding
                param = builder.create(
                    "transform.param.constant", attributes=attributes,
                    result_types=[transform.PARAM_I64],
                ).result
                transform.annotate(builder, root, f"fuzz_param{index}",
                                   param)
        elif kind < 0.75:
            transform.alternatives(builder, self.rng.randint(1, 2))
        else:
            transform.apply_patterns(builder, self.rng.choice(targets), [])

    def _nested_alternatives(self, builder: Builder, root: Value,
                             nesting: int) -> None:
        alts = transform.alternatives(builder, self.rng.randint(1, 3))
        for region in alts.regions[:-1]:
            inner = Builder.at_end(region.entry_block)
            self.fill_block(inner, root, self.rng.randint(1, 3),
                            nesting + 1)
            if self.rng.random() < 0.6:
                inner.create("transform.test.emit_silenceable")
            transform.yield_(inner)
        # Last region: either another attempt or the empty fallback.
        if self.rng.random() < 0.5:
            inner = Builder.at_end(alts.regions[-1].entry_block)
            self.fill_block(inner, root, self.rng.randint(1, 2),
                            nesting + 1)
            transform.yield_(inner)


def build_rollback_case(rng: random.Random
                        ) -> Tuple[Operation, Operation]:
    """Payload + schedule whose first alternative mutates then fails.

    Region 1 runs a *safe* random mutating schedule and then fails
    silenceably; region 2 is the empty "leave the code unchanged"
    fallback. Half the cases whose payload has a loop scope the
    ``alternatives`` to the first ``scf.for``: region 1 runs from its
    block argument, and region 2 annotates its own ``fallback``.
    Interpretation must succeed with the payload print byte-identical
    to the pre-``alternatives`` state (:func:`_rolled_back_print`).
    """
    payload = PayloadFuzzer(rng).module()
    script, builder, root = transform.sequence()
    scope = None
    if rng.random() < 0.5 and any(payload.walk_ops("scf.for")):
        scope = transform.match_op(builder, root, "scf.for",
                                   position="first")
    alts = transform.alternatives(builder, 2, scope=scope)
    block = alts.regions[0].entry_block
    first = Builder.at_end(block)
    ScheduleFuzzer(rng, safe=True).fill_block(
        first, root if scope is None else block.add_arg(transform.ANY_OP),
        rng.randint(1, 4), nesting=1
    )
    first.create(
        "transform.test.emit_silenceable",
        attributes={"message": "force rollback"},
    )
    if scope is not None:
        fallback = alts.regions[1].entry_block
        transform.annotate(Builder.at_end(fallback),
                           fallback.add_arg(transform.ANY_OP), "fallback")
    transform.yield_(builder)
    return payload, script


def _rolled_back_print(script: Operation, before: str) -> str:
    """What a rollback case leaves: the payload print ``before`` it
    ran, its first loop annotated ``fallback`` when the case is scoped
    (region 2 runs on the scope region 1's rollback restored)."""
    from ..ir.attributes import UnitAttr
    from ..ir.parser import parse

    if not next(script.walk_ops("transform.alternatives")).num_operands:
        return before
    reference = parse(before)
    next(reference.walk_ops("scf.for")).set_attr("fallback", UnitAttr())
    return print_op(reference)


_FRONTEND_MATCH_NAMES = ("scf.for", "linalg.matmul", "arith.addf",
                         "func.func", "memref.load")
_FRONTEND_PASSES = ("convert-scf-to-cf", "lower-affine",
                    "convert-arith-to-llvm")


class FrontendScheduleFuzzer:
    """Generate random transform scripts *through the builder API*: the
    builder leg of every case.

    Along the way each case probes the Python-level use-after-consume
    guard with deliberately stale handles, records a violation if the
    builder fails to raise and keeps each rejected probe for
    :func:`_replay_stale_uses`. About 30 % of the cases define and
    include a helper macro, which makes the script a module.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.violations: List[str] = []
        #: (op the scope emitted last, stale value) per rejected probe.
        self.stale_uses: List[Tuple[Operation, Value]] = []

    # -- helpers -----------------------------------------------------------

    def _match(self, scope) -> None:
        names = self.rng.choice(_FRONTEND_MATCH_NAMES)
        if self.rng.random() < 0.15:
            names = [names, self.rng.choice(_FRONTEND_MATCH_NAMES)]
        position = self.rng.choice(("all", "first", "second", "last"))
        scope.match(names, position=position)

    def _probe_stale(self, scope, stale) -> None:
        """A consumed handle must be rejected by the next use; a
        rejected probe is kept for :func:`_replay_stale_uses`."""
        from ..frontend.errors import ScheduleError

        try:
            scope.use(stale)
        except ScheduleError:
            self.stale_uses.append((scope._builder.ip.block.ops[-1],
                                    stale.value))
            return
        except Exception as error:
            self.violations.append(
                f"stale-handle probe raised {type(error).__name__}, "
                "expected ScheduleError"
            )
            return
        self.violations.append(
            "stale-handle probe: builder accepted a consumed handle"
        )

    def _consuming_action(self, scope) -> None:
        stale = scope._cursor
        kind = self.rng.choice(("tile", "split", "unroll", "peel",
                                "to_library"))
        if kind == "tile":
            if self.rng.random() < 0.3:
                sizes = scope.param(
                    [self.rng.choice((2, 4, 8, 16)),
                     self.rng.choice((2, 4, 8, 16))],
                    binding=f"T{self.rng.randrange(100)}")
                scope.tile(sizes=sizes,
                           keep=self.rng.choice(("outer", "inner")))
            else:
                scope.tile(sizes=[self.rng.choice((2, 4, 8, 16, 32))],
                           keep=self.rng.choice(("outer", "inner")))
        elif kind == "split":
            scope.split(self.rng.choice((2, 4, 8, 32)),
                        keep=self.rng.choice(("main", "rest")))
        elif kind == "unroll":
            if self.rng.random() < 0.5:
                scope.unroll(full=True)
            else:
                scope.unroll(self.rng.choice((2, 4, 8)))
        elif kind == "peel":
            scope.peel(keep=self.rng.choice(("main", "rest")))
        else:
            scope.to_library(
                self.rng.choice(sorted(transform.LIBRARY_REGISTRY)))
        if stale is not None and not stale.live \
                and self.rng.random() < 0.6:
            self._probe_stale(scope, stale)

    def _in_place_action(self, scope) -> None:
        kind = self.rng.choice(("vectorize", "hoist", "annotate",
                                "select", "pass", "print"))
        if kind == "vectorize":
            if self.rng.random() < 0.3:
                width = scope.param(
                    self.rng.choice((2, 4, 8)),
                    binding=f"V{self.rng.randrange(100)}")
                scope.vectorize(width)
            else:
                scope.vectorize(self.rng.choice((2, 4, 8, 16)))
        elif kind == "hoist":
            scope.hoist()
        elif kind == "annotate":
            scope.annotate("fuzz_tag", self.rng.randrange(16))
        elif kind == "select":
            scope.select(self.rng.choice(_FRONTEND_MATCH_NAMES))
        elif kind == "pass":
            scope.apply_registered_pass(
                self.rng.choice(_FRONTEND_PASSES))
        else:
            scope.print_("fuzz")

    def _fill_scope(self, scope, depth: int = 0) -> None:
        self._match(scope)
        for _ in range(self.rng.randrange(2, 6)):
            if scope._cursor is None or not scope._cursor.live:
                self._match(scope)
            roll = self.rng.random()
            if roll < 0.35:
                self._consuming_action(scope)
            elif roll < 0.85 or depth >= 1:
                self._in_place_action(scope)
            else:
                regions = [
                    (lambda nested: self._fill_scope(nested, depth + 1))
                    if self.rng.random() < 0.7 else None
                    for _ in range(self.rng.randrange(1, 3))
                ]
                if all(body is None for body in regions):
                    regions[0] = (
                        lambda nested: self._fill_scope(nested, depth + 1)
                    )
                scope.alternatives(*regions)

    def build(self):
        """One random schedule; returns the un-built Schedule. Half of
        the helper macros yield a match nested in their argument; the
        caller then sometimes consumes the argument and probes the
        include's result, which must have died with it."""
        from ..frontend import Schedule

        schedule = Schedule()
        if self.rng.random() < 0.3:
            name = f"helper_{self.rng.randrange(1000)}"
            yields = self.rng.random() < 0.5

            def body(scope):
                self._fill_scope(scope, depth=1)
                if yields:
                    self._match(scope)
                    return scope._cursor

            schedule.define(name, body)
            self._match(schedule)
            argument = schedule._cursor
            schedule.include(name, name=f"{name}_result")
            if yields and argument.live and self.rng.random() < 0.5:
                result = schedule._cursor
                schedule.use(argument)
                self._consuming_action(schedule)
                self._probe_stale(schedule, result)
        self._fill_scope(schedule)
        return schedule


def _frontend_payload() -> Operation:
    """The payload of the builder leg: a matmul and a batched matmul,
    with trip counts some tile sizes do not divide and small enough
    that full unrolls stay cheap."""
    from ..execution.workloads import (
        build_batch_matmul_module, build_matmul_module,
    )

    module = build_matmul_module(6, 4, 8)
    for op in list(build_batch_matmul_module(2, 4, 6, 4).body.ops):
        module.body.append(op)
    return module


# ---------------------------------------------------------------------------
# Case legs
# ---------------------------------------------------------------------------


@dataclass
class Leg:
    """One generator's (payload, script) pair of a case, and how to
    build it afresh from the case seed: the oracles that re-run a case
    (stable classification, normalization, outlining) ``rebuild`` it."""

    payload: Operation
    script: Operation
    rebuild: Callable[[], "Leg"]
    rollback: bool = False
    #: The builder leg's fuzzer: its probes and what they met.
    fuzzer: Optional[FrontendScheduleFuzzer] = None


def _build_case(case_seed: int) -> Leg:
    """The textual leg: a random payload and script, or a rollback
    case."""
    rng = random.Random(case_seed)
    rollback = rng.random() < 0.4
    if rollback:
        payload, script = build_rollback_case(rng)
    else:
        payload = PayloadFuzzer(rng).module()
        script = ScheduleFuzzer(rng).sequence()
    return Leg(payload, script, partial(_build_case, case_seed), rollback)


def _build_builder_case(case_seed: int) -> Leg:
    """The builder leg: a random builder chain on
    :func:`_frontend_payload`."""
    fuzzer = FrontendScheduleFuzzer(random.Random(case_seed))
    script = fuzzer.build().build()
    return Leg(_frontend_payload(), script,
               partial(_build_builder_case, case_seed), fuzzer=fuzzer)


#: Leg name -> its generator; every case runs each through every oracle.
LEGS: Dict[str, Callable[[int], Leg]] = {
    "textual": _build_case,
    "builder": _build_builder_case,
}


# ---------------------------------------------------------------------------
# Case execution and invariants
# ---------------------------------------------------------------------------


@dataclass
class CaseOutcome:
    """Classified result of interpreting one leg of a fuzz case."""

    kind: str  # "success" | "silenceable" | "definite" | "crash"
    message: str
    payload_print: str
    #: The interpreter's ``transform.print`` output, and the transform
    #: op a definite error stopped at.
    printed: List[str] = field(default_factory=list)
    stopped_at: Optional[Operation] = None
    #: Builder leg: what the replayed stale-handle probes met.
    probes: Counter = field(default_factory=Counter)


@dataclass
class FuzzReport:
    """Aggregate over a fuzz run, outcome kinds counted per leg."""

    cases: int = 0
    outcomes: Dict[str, Counter] = field(
        default_factory=lambda: {name: Counter() for name in LEGS})
    failures: List[FuzzFailure] = field(default_factory=list)
    probes: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"fuzz: {self.cases} cases"]
        for name, counts in self.outcomes.items():
            mix = ", ".join(
                f"{kind} {counts[kind]}"
                for kind in ("success", "silenceable", "definite", "crash")
                if counts[kind])
            lines.append(f"  {name}: {sum(counts.values())} ({mix})")
        if self.probes:
            lines.append(
                f"  stale probes: {self.probes['probes']} (lint errors "
                f"{self.probes['lint errors']}, lint warnings "
                f"{self.probes['lint warnings']}; reached "
                f"{self.probes['reached']})")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            lines.extend(f"    {failure}" for failure in self.failures)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


#: Reports one violated invariant of the leg under check:
#: ``fail(invariant, detail)``.
Fail = Callable[[str, str], None]


def _crash(error: Exception) -> str:
    return (f"{type(error).__name__}: {error}\n"
            + traceback.format_exc(limit=8))


def _interpret(payload: Operation, script: Operation) -> CaseOutcome:
    """Bind :data:`FUZZ_BINDINGS` in ``script`` and run a clone of it
    on ``payload`` (the run inlines its macros; the oracles read the
    script as written), classifying the outcome."""
    bind_parameters(script, FUZZ_BINDINGS)
    interpreter = TransformInterpreter()
    try:
        result = interpreter.apply(script.clone(), payload)
    except TransformInterpreterError as error:
        return CaseOutcome("definite", str(error.result.message),
                           print_op(payload), interpreter.output,
                           error.result.transform_op)
    except Exception as error:  # pragma: no cover - a found bug
        return CaseOutcome("crash", _crash(error), "")
    kind = "silenceable" if result.is_silenceable else "success"
    return CaseOutcome(kind, result.message, print_op(payload),
                       interpreter.output)


def _check_rerun(fail: Fail, status: str, payload: str, label: str,
                 outcome: CaseOutcome, rerun: CaseOutcome,
                 same_message: bool = False) -> None:
    """The ``label`` re-run of a case ends like the run as written: in
    the same status class (and message), else a ``status`` failure,
    with the same payload bytes, else a ``payload`` failure."""
    if rerun.kind != outcome.kind \
            or same_message and rerun.message != outcome.message:
        fail(status, f"as written {outcome.kind}: {outcome.message!r}; "
                     f"{label} {rerun.kind}: {rerun.message!r}")
    elif rerun.payload_print != outcome.payload_print:
        fail(payload, "payload prints diverge between the schedule as "
                      f"written and {label}")


def _differential_check(fail: Fail, script: Operation,
                        outcome: CaseOutcome) -> None:
    """Cross-check the static analysis against the dynamic outcome.

    Soundness: a dynamic invalidation error must have been predicted
    (any severity — the worst-case may-alias warnings count).
    Precision: a cleanly-executing schedule must carry no *definite*
    (error-severity) static diagnostic.
    """
    from ..analysis.invalidation import ERROR, analyze_script

    try:
        issues = analyze_script(script, may_alias=True)
    except Exception as error:  # pragma: no cover - a found bug
        fail("static-analysis-containment", _crash(error))
        return
    if outcome.kind == "definite" and "invalidated by" in outcome.message \
            and not issues:
        fail("static-soundness", "dynamic invalidation error not "
                                 f"predicted statically: {outcome.message}")
    definite = [issue for issue in issues if issue.severity == ERROR]
    if outcome.kind == "success" and definite:
        fail("static-precision",
             f"schedule executed cleanly but carries {len(definite)} "
             f"definite static error(s), e.g. {definite[0]}")


def outline_slice(script: Operation, rng: random.Random) -> Operation:
    """Move a random contiguous slice of the entry sequence of
    ``script`` (:func:`~repro.core.interpreter.find_entry`) into
    ``@outlined`` and return a module holding it and the script, whose
    slice is now a ``transform.include``: the macro's arguments are the
    values the slice reads from outside it, its yields the values of
    the slice used after it."""
    entry = find_entry(script)
    block = entry.regions[0].entry_block
    ops = [op for op in block.ops if op.name != "transform.yield"]
    start = rng.randrange(len(ops))
    piece = ops[start:rng.randint(start + 1, len(ops))]
    nested = [inner for op in piece for inner in op.walk()]
    inside = {id(op) for op in nested}
    defined = {id(value) for op in nested for value in op.results}
    defined.update(id(arg) for op in nested for region in op.regions
                   for inner in region.blocks for arg in inner.args)
    captured = list({id(value): value for op in nested
                     for value in op.operands
                     if id(value) not in defined}.values())
    escaping = [result for op in piece for result in op.results
                if any(id(user) not in inside for user in result.users)]
    macro = Operation.create("transform.named_sequence", regions=1,
                             attributes={"sym_name": "outlined"})
    body = Block([value.type for value in captured])
    macro.regions[0].add_block(body)
    value_map = dict(zip(captured, body.args))
    for op in piece:
        body.append(op.clone(value_map))
    transform.yield_(Builder.at_end(body),
                     [value_map[value] for value in escaping])
    include = Builder.before(piece[0]).create(
        "transform.include", operands=captured,
        result_types=[value.type for value in escaping],
        attributes={"target": SymbolRefAttr("outlined")})
    for value, result in zip(escaping, include.results):
        value.replace_all_uses_with(result)
    for op in reversed(piece):
        op.erase()
    if entry is script:
        script = builtin.module()
        script.body.append(entry)
    script.body.insert(0, macro)
    return script


def _outline_check(fail: Fail, case_seed: int, leg: Leg,
                   outcome: CaseOutcome) -> None:
    """Re-run the case with a slice outlined into a macro: same status
    class, same payload bytes, and both static oracles hold on it."""
    fresh = leg.rebuild()
    outlined = outline_slice(fresh.script,
                             random.Random(f"outline:{case_seed}"))
    result = _interpret(fresh.payload, outlined)
    _check_rerun(fail, "outline-keeps-outcome", "outline-keeps-outcome",
                 "outlined", outcome, result)
    if result.kind != "crash":
        _differential_check(fail, outlined, result)


def _normalize(script: Operation) -> None:
    """The script pipeline a normalizing service runs: expand every
    include, then canonicalize and CSE."""
    expand_includes(script)
    PassManager(["canonicalize", "cse"]).run(script)


def _normalize_check(fail: Fail, leg: Leg, outcome: CaseOutcome) -> None:
    """Re-run the case normalized: same status class, same payload
    bytes; a raise from the pipeline is a failure, not a crash."""
    fresh = leg.rebuild()
    try:
        _normalize(fresh.script)
    except Exception as error:
        fail("normalize-containment", _crash(error))
        return
    _check_rerun(fail, "normalize-keeps-status", "normalize-keeps-payload",
                 "normalized", outcome, _interpret(fresh.payload,
                                                   fresh.script))


def _roundtrip_check(fail: Fail, what: str, module: Operation) -> None:
    """The text front end is lossless on ``module``: its print parses,
    re-prints byte-identically and keeps its digest."""
    from ..ir.hashing import op_digest
    from ..ir.parser import parse

    text = print_op(module)
    try:
        reparsed = parse(text, f"<{what}>")
    except Exception as error:
        fail("roundtrip-parses", f"{what}: {type(error).__name__}: {error}")
        return
    if print_op(reparsed) != text:
        fail("roundtrip-byte-identical",
             f"{what}: print(parse(print(m))) != print(m)")
    elif op_digest(reparsed) != op_digest(module):
        fail("roundtrip-digest",
             f"{what}: the digest moved across print -> parse")


def relocation_violations(module: Operation) -> List[str]:
    """Which of the identities the function tier rests on (DESIGN.md
    §9) fail on ``module``; empty for a module that is not cleanly
    splittable into functions.

    The entries, printed in one session, join to the whole-module
    print with no name moved; the entries in any other order assemble
    — each shifted by the difference of its bases — to the print of
    the module with its functions in that order (every order up to
    four functions, the rotations and the reverse beyond); the module
    digest composes from the functions' digests; and shifting by
    nothing changes nothing."""
    from ..ir.hashing import module_digest, op_digest
    from ..ir.printer import module_body, module_text, shift_names
    from ..service.sharding import assemble_functions, function_entries

    entries = function_entries(module)
    if entries is None:
        return []
    functions = module.regions[0].entry_block.ops
    violated = []
    joined = "\n".join(module_body(text, {}) for text, _, _ in entries)
    if module_text(joined, module.attributes) != print_op(module):
        violated.append("join of the entries != print_op(module)")
    count = len(entries)
    if count <= 4:
        orders = list(itertools.permutations(range(count)))
    else:
        orders = [tuple(range(count))[turn:] + tuple(range(turn))
                  for turn in range(count)] + [tuple(reversed(range(count)))]
    for order in orders:
        permuted = builtin.module(attributes=module.attributes)
        for index in order:
            permuted.body.append(functions[index].clone())
        if assemble_functions(
                module.attributes, [entries[i][0] for i in order],
                names=[entries[i][2] for i in order])[0] \
                != print_op(permuted):
            violated.append(f"entries assembled in order {order} != "
                            "print_op of the module in that order")
        permuted.destroy()
    if module_digest(module.attributes,
                     [digest for _, digest, _ in entries]) \
            != op_digest(module):
        violated.append("module_digest(function digests) != op_digest")
    if any(shift_names(text, 0, 0)[0] != text for text, _, _ in entries):
        violated.append("shift_names(entry, 0, 0) is not the identity")
    return violated


def op_list_violations(root: Operation) -> List[str]:
    """Which blocks under ``root`` hold an inconsistent op list (the
    container contract of DESIGN.md §11) or def-use links — an operand
    missing from its value's use list, a use of a value defined under
    ``root`` by an op not attached under it; empty when all is well."""
    violated = []
    for parent in root.walk():
        defined = _defined(parent)
        if any(use not in use.value._uses for use in parent._operands):
            violated.append(f"an operand of '{parent.name}' is not in "
                            "its value's use list")
        for region in parent.regions:
            for block in region.blocks:
                forward, op = [], block._first
                while op is not None:
                    forward.append(op)
                    op = op.next_op
                backward, op = [], block._last
                while op is not None:
                    backward.append(op)
                    op = op.prev_op
                where = f"block of '{parent.name}'"
                if forward != backward[::-1]:
                    violated.append(f"{where}: forward links are not "
                                    "the backward links reversed")
                if region.parent is not parent or block.parent is not region \
                        or any(op.parent is not block for op in forward):
                    violated.append(f"{where}: a parent pointer is off")
                if block._ops is not None and block._ops != forward:
                    violated.append(f"{where}: the ops memo is not the "
                                    "linked order")
                orders = [op._order for op in forward]
                if block._ordered and any(
                        a >= b for a, b in zip(orders, orders[1:])):
                    violated.append(f"{where}: a valid order index "
                                    "does not rise")
        if any(not root.is_ancestor_of(use.owner)
               for value in defined for use in value._uses):
            violated.append(f"a value defined by '{parent.name}' has a "
                            "use outside the tree")
    return violated


def _defined(op: Operation) -> List[Value]:
    """The values ``op`` defines: its results and its blocks' arguments."""
    return [*op.results, *(arg for region in op.regions
                           for block in region.blocks for arg in block.args)]


def _identity(root: Operation) -> List[object]:
    """What a rollback keeps besides bytes: the ops under ``root`` in
    pre-order, each followed by the values it defines, each of those by
    its uses — as objects, which ``==`` compares by identity."""
    return [item for op in root.walk() for item in (op, *(
        obj for value in _defined(op) for obj in (value, *value._uses)))]


def _relocation_check(fail: Fail, what: str, module: Operation) -> None:
    for violation in relocation_violations(module):
        fail("relocatable-function-text", f"{what}: {violation}")


def _op_list_check(fail: Fail, what: str, module: Operation) -> None:
    for violation in op_list_violations(module):
        fail("op-list-links", f"{what}: {violation}")


def _check_leg(fail: Fail, case_seed: int, leg: Leg) -> CaseOutcome:
    """Interpret one leg of a case, checking every invariant on it."""
    before = print_op(leg.payload)
    objects = _identity(leg.payload) if leg.rollback else []
    for check in (_roundtrip_check, _relocation_check, _op_list_check):
        check(fail, "payload", leg.payload)
    _roundtrip_check(fail, "script", leg.script)
    outcome = _interpret(leg.payload, leg.script)
    _op_list_check(fail, "output", leg.payload)
    if outcome.kind == "crash":
        fail("no-uncaught-exceptions", outcome.message)
        return outcome
    _differential_check(fail, leg.script, outcome)
    _outline_check(fail, case_seed, leg, outcome)
    if outcome.kind != "definite":
        try:
            leg.payload.verify()
        except Exception as error:
            fail("payload-verifies-after-run",
                 f"{type(error).__name__}: {error}")
        else:
            _roundtrip_check(fail, "output", leg.payload)
            _relocation_check(fail, "output", leg.payload)
    if leg.rollback:
        if outcome.kind != "success":
            fail("rollback-case-succeeds",
                 f"got {outcome.kind}: {outcome.message}")
        elif outcome.payload_print != _rolled_back_print(leg.script,
                                                        before):
            fail("rollback-byte-identical",
                 "payload print changed across a rolled-back alternative")
        elif _identity(leg.payload) != objects:
            fail("rollback-keeps-identity", "a rolled-back alternative left "
                 "other op, value or use objects, or another order")
    replay = leg.rebuild()
    if print_op(replay.payload) != before:
        fail("deterministic-generation",
             "payload generation is not a pure function of the seed")
    _check_rerun(fail, "stable-classification", "deterministic-execution",
                 "replayed", outcome,
                 _interpret(replay.payload, replay.script),
                 same_message=True)
    if outcome.kind != "definite":
        _normalize_check(fail, leg, outcome)
    if leg.fuzzer is not None:
        _builder_checks(fail, leg, outcome)
    return outcome


def _builder_checks(fail: Fail, leg: Leg, outcome: CaseOutcome) -> None:
    """What only a builder-made script promises: the builder rejected
    every stale handle it was given; the script carries no
    error-severity ``repro-lint`` diagnostic and no use-after-consume
    issue of any severity from the analysis the builder steps
    (``may_alias=False``); and every rejected probe replays as one the
    analysis flags and the interpreter never runs."""
    from ..analysis.invalidation import analyze_script
    from ..analysis.lint import lint_script
    from ..ir.diagnostics import Severity

    for violation in leg.fuzzer.violations:
        fail("frontend-use-after-consume", violation)
    text = print_op(leg.script)
    errors = [str(diagnostic)
              for diagnostic in lint_script(leg.script).diagnostics
              if diagnostic.severity is Severity.ERROR]
    if errors:
        fail("frontend-lint-clean",
             "builder-emitted script has error diagnostics: "
             + "; ".join(errors) + "\n" + text)
    flagged = analyze_script(leg.script, may_alias=False)
    if flagged:
        fail("frontend-analysis-clean", "the builder accepted a handle "
             f"the analysis flags: {flagged[0]}\n{text}")
    outcome.probes = _replay_stale_uses(fail, leg.script,
                                        leg.fuzzer.stale_uses)


def _replay_stale_uses(fail: Fail, script: Operation,
                       stale_uses: List[Tuple[Operation, Value]]
                       ) -> Counter:
    """The three-way leg: replay each stale-handle probe the builder
    rejected as a ``transform.print`` of the stale value after the op
    its scope had emitted last. The analysis the builder steps must
    report an issue at that print (at its inlined copy inside a macro),
    and the interpreter must never run it: a run that reaches it fails
    there with "invalidated by". Returns the leg's counts."""
    from ..analysis.invalidation import ERROR, analyze_script

    counts: Counter = Counter()
    for index, (anchor, stale) in enumerate(stale_uses):
        marker = f"stale-probe-{index}"
        probe = transform.print_(Builder.after(anchor), stale, marker)

        def is_probe(op: Optional[Operation]) -> bool:
            # The probe itself, or its copy inlined from a macro.
            return op is not None and op.name == "transform.print" \
                and op._str_attr("message") == marker

        try:
            severities = [
                issue.severity
                for issue in analyze_script(script, may_alias=False)
                if is_probe(issue.use_op)]
            outcome = _interpret(_frontend_payload(), script)
        finally:
            probe.erase()
        counts["probes"] += 1
        if not severities:
            fail("stale-print-flagged", "no use-after-consume issue at "
                 f"the replayed probe {marker}\n{print_op(script)}")
        else:
            counts["lint errors" if ERROR in severities
                   else "lint warnings"] += 1
        ran = f"[transform.print] {marker}"
        if any(out.split("\n", 1)[0] == ran for out in outcome.printed):
            fail("stale-print-fails",
                 f"the interpreter ran the replayed probe {marker}")
        elif is_probe(outcome.stopped_at):
            if "invalidated by" in outcome.message:
                counts["reached"] += 1
            else:
                fail("stale-print-fails", f"the replayed probe {marker} "
                     f"failed with {outcome.message!r}")
    return counts


def run_case(case_seed: int
             ) -> Tuple[Dict[str, CaseOutcome], List[FuzzFailure]]:
    """Build both legs of one case and check every invariant on each;
    a failure's detail starts with the name of its leg."""
    outcomes: Dict[str, CaseOutcome] = {}
    failures: List[FuzzFailure] = []
    for name, build in LEGS.items():
        def fail(invariant: str, detail: str, name: str = name) -> None:
            failures.append(
                FuzzFailure(case_seed, invariant, f"{name}: {detail}"))

        try:
            leg = build(case_seed)
        except Exception as error:  # pragma: no cover - a found bug
            fail("generator-containment", _crash(error))
            outcomes[name] = CaseOutcome("crash", str(error), "")
        else:
            outcomes[name] = _check_leg(fail, case_seed, leg)
    return outcomes, failures


def run_fuzz(seed: int = 0, cases: int = 200) -> FuzzReport:
    """Run ``cases`` fuzz cases derived from ``seed``."""
    report = FuzzReport(cases=cases)
    for case_seed in case_seeds(seed, cases):
        outcomes, failures = run_case(case_seed)
        for name, outcome in outcomes.items():
            report.outcomes[name][outcome.kind] += 1
            report.probes.update(outcome.probes)
        report.failures.extend(failures)
    return report


# ---------------------------------------------------------------------------
# CLI: python -m repro.testing.fuzz
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="randomized schedule/payload fuzzing of the "
        "transform interpreter: every case runs a textual and a "
        "builder-made schedule through every invariant",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the run (default 0)")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of cases (default 200)")
    parser.add_argument("--case-seed", type=int, default=None,
                        help="re-run a single case by its case-seed "
                        "(as printed in a failure report)")
    args = parser.parse_args(argv)

    if args.case_seed is not None:
        outcomes, failures = run_case(args.case_seed)
        print(f"case-seed {args.case_seed}")
        for name, outcome in outcomes.items():
            print(f"  {name}: {outcome.kind}"
                  + (f": {outcome.message}" if outcome.message else ""))
        for failure in failures:
            print(f"  {failure}")
        return 0 if not failures else 1

    report = run_fuzz(args.seed, args.cases)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
