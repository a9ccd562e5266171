"""Seeded schedule/payload fuzzing for the transform interpreter.

MLIR-Smith-style hardening (arXiv:2601.02218): every case builds a
random payload module from the registered dialects and a
random-but-type-correct transform script, runs the script under the
interpreter's exception barrier, and asserts the robustness invariants:

* **containment** — interpretation either returns a
  :class:`~repro.core.errors.TransformResult` or raises a clean
  :class:`~repro.core.errors.TransformInterpreterError`; any other
  exception is a harness crash and fails the run;
* **consistency** — after a non-definite outcome the payload still
  verifies;
* **transactional rollback** — a schedule whose first alternative
  mutates the payload and then fails silenceably must leave the payload
  print byte-identical to its pre-``alternatives`` state;
* **stable classification** — regenerating and re-running a case from
  its seed reproduces the same outcome kind, message and payload print;
* **textual round-trip** — the generated payload, the generated script
  and every verifying output satisfy ``print(parse(print(m))) ==
  print(m)`` with an equal structural digest, so a front-end change
  that narrows or shifts the language fails here;
* **relocatable function text** — every all-function payload and
  output is the join of its function-tier entries as printed, its
  entries in any other order assemble to the print of the module in
  that order, and its digest composes from theirs
  (:func:`relocation_violations`), which is what the compile service's
  function tier serves results from without parsing;
* **op-list links** — in every payload and every output, each block's
  intrusive op list is consistent (:func:`op_list_violations`): forward
  links mirror backward links, parent pointers match, the ``block.ops``
  memo is the linked order and a valid order index rises along it;
* **normalization keeps the outcome** — unless the schedule as written
  ends in a definite error, the same schedule after ``expand_includes``
  and ``PassManager(["canonicalize", "cse"])`` ends in the same status
  class with a byte-identical payload, :data:`FUZZ_BINDINGS` bound
  after either (the as-written vs normalized oracle a service that
  normalizes scripts rests on).

With ``--differential``, every case additionally cross-checks the
static analysis (:mod:`repro.analysis.invalidation`) against the
observed dynamic semantics:

* **static soundness** — a dynamic handle-invalidation error must be
  predicted by at least one static issue (any severity; the coarse
  may-alias warnings participate);
* **static precision** — a schedule that executes cleanly must carry
  zero *definite* (``error``-severity) static diagnostics;
* **outlining keeps the outcome** — the same schedule with a random
  contiguous slice of its entry block moved into a macro
  (:func:`outline_slice`) ends in the same status class with a
  byte-identical payload, and passes both oracles above, so the
  analyses are cross-checked on scripts whose defects sit inside an
  included macro.

Every case is derived from a single ``(seed, index)`` pair, so a CI
failure is reproducible locally with::

    python -m repro.testing.fuzz --seed N --cases M
    python -m repro.testing.fuzz --case-seed K   # one failing case
    python -m repro.testing.fuzz --seed N --differential
"""

from __future__ import annotations

import itertools
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core import dialect as transform
from ..core.errors import TransformInterpreterError
from ..core.interpreter import TransformInterpreter
from ..core.script_transforms import ScriptTransformError, expand_includes
from ..dialects import arith, builtin, func, scf
from ..ir.attributes import SymbolRefAttr
from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value
from ..ir.printer import print_op
from ..passes.manager import PassManager
from ..service.worker import bind_parameters

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
            # so use-after-consume (and the --differential soundness
            # oracle) is exercised far more often than the 4%-slot
            # above manages on its own.
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
    fallback. Interpretation must succeed with the payload print
    byte-identical to the pre-``alternatives`` state.
    """
    payload = PayloadFuzzer(rng).module()
    script, builder, root = transform.sequence()
    alts = transform.alternatives(builder, 2)
    first = Builder.at_end(alts.regions[0].entry_block)
    ScheduleFuzzer(rng, safe=True).fill_block(
        first, root, rng.randint(1, 4), nesting=1
    )
    first.create(
        "transform.test.emit_silenceable",
        attributes={"message": "force rollback"},
    )
    transform.yield_(builder)
    return payload, script


# ---------------------------------------------------------------------------
# Case execution and invariants
# ---------------------------------------------------------------------------


@dataclass
class CaseOutcome:
    """Classified result of interpreting one fuzz case."""

    kind: str  # "success" | "silenceable" | "definite" | "crash"
    message: str
    payload_print: str
    #: The interpreter's ``transform.print`` output, and the transform
    #: op a definite error stopped at.
    printed: List[str] = field(default_factory=list)
    stopped_at: Optional[Operation] = None
    #: ``--frontend``: what the replayed stale-handle probes met.
    probes: Counter = field(default_factory=Counter)


@dataclass
class FuzzFailure:
    """One violated invariant, with enough context to reproduce."""

    case_seed: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[case-seed {self.case_seed}] {self.invariant}: {self.detail}"
        )


@dataclass
class FuzzReport:
    """Aggregate over a fuzz run."""

    cases: int = 0
    outcomes: Counter = field(default_factory=Counter)
    failures: List[FuzzFailure] = field(default_factory=list)
    probes: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"fuzz: {self.cases} cases"]
        for kind in ("success", "silenceable", "definite", "crash",
                     "clean", "violated"):
            if self.outcomes.get(kind):
                lines.append(f"  {kind}: {self.outcomes[kind]}")
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


def _interpret(payload: Operation, script: Operation) -> CaseOutcome:
    """Bind :data:`FUZZ_BINDINGS` in ``script`` and run it on
    ``payload``, classifying the outcome."""
    bind_parameters(script, FUZZ_BINDINGS)
    interpreter = TransformInterpreter()
    try:
        result = interpreter.apply(script, payload)
    except TransformInterpreterError as error:
        return CaseOutcome("definite", str(error.result.message),
                           print_op(payload), interpreter.output,
                           error.result.transform_op)
    except Exception as error:  # pragma: no cover - a found bug
        return CaseOutcome(
            "crash",
            f"{type(error).__name__}: {error}\n"
            + traceback.format_exc(limit=8),
            "",
        )
    kind = "silenceable" if result.is_silenceable else "success"
    return CaseOutcome(kind, result.message, print_op(payload),
                       interpreter.output)


def _build_case(case_seed: int
                ) -> Tuple[Operation, Operation, bool, str]:
    """(payload, script, is_rollback_case, pre-run print)."""
    rng = random.Random(case_seed)
    rollback = rng.random() < 0.4
    if rollback:
        payload, script = build_rollback_case(rng)
    else:
        payload = PayloadFuzzer(rng).module()
        script = ScheduleFuzzer(rng).sequence()
    return payload, script, rollback, print_op(payload)


def _differential_check(case_seed: int, script: Operation,
                        outcome: CaseOutcome,
                        failures: List[FuzzFailure]) -> None:
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
        failures.append(FuzzFailure(
            case_seed, "static-analysis-containment",
            f"{type(error).__name__}: {error}\n"
            + traceback.format_exc(limit=8),
        ))
        return
    if outcome.kind == "definite" and "invalidated by" in outcome.message:
        if not issues:
            failures.append(FuzzFailure(
                case_seed, "static-soundness",
                f"dynamic invalidation error not predicted "
                f"statically: {outcome.message}",
            ))
    if outcome.kind == "success":
        definite = [i for i in issues if i.severity == ERROR]
        if definite:
            failures.append(FuzzFailure(
                case_seed, "static-precision",
                f"schedule executed cleanly but carries "
                f"{len(definite)} definite static error(s), e.g. "
                f"{definite[0]}",
            ))


def outline_slice(script: Operation, rng: random.Random) -> Operation:
    """Move a random contiguous slice of ``script``'s entry block into
    ``@outlined`` and return a module holding it and ``script``, whose
    slice is now a ``transform.include``: the macro's arguments are the
    values the slice reads from outside it, its yields the values of
    the slice used after it."""
    block = script.regions[0].entry_block
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
    module = builtin.module()
    module.body.append(macro)
    module.body.append(script)
    return module


def _outline_check(case_seed: int, outcome: CaseOutcome,
                   failures: List[FuzzFailure]) -> None:
    """Re-run the case with a slice outlined into a macro: same status
    class, same payload bytes, and both static oracles hold on it."""
    payload, script, _rollback, _before = _build_case(case_seed)
    outlined = outline_slice(script, random.Random(f"outline:{case_seed}"))
    result = _interpret(payload, outlined)
    if result.kind != outcome.kind:
        failures.append(FuzzFailure(
            case_seed, "outline-keeps-outcome",
            f"as written {outcome.kind}: {outcome.message!r}; "
            f"outlined {result.kind}: {result.message!r}",
        ))
    elif result.payload_print != outcome.payload_print:
        failures.append(FuzzFailure(
            case_seed, "outline-keeps-outcome",
            "payload prints diverge between the schedule as written and "
            "outlined",
        ))
    if result.kind != "crash":
        _differential_check(case_seed, outlined, result, failures)


def _roundtrip_check(case_seed: int, what: str, module: Operation,
                     failures: List[FuzzFailure]) -> None:
    """The text front end is lossless on ``module``: its print parses,
    re-prints byte-identically and keeps the structural digest."""
    from ..ir.hashing import op_digest
    from ..ir.parser import parse

    text = print_op(module)
    try:
        reparsed = parse(text, f"<{what}>")
    except Exception as error:
        failures.append(FuzzFailure(
            case_seed, "roundtrip-parses",
            f"{what}: {type(error).__name__}: {error}",
        ))
        return
    if print_op(reparsed) != text:
        failures.append(FuzzFailure(
            case_seed, "roundtrip-byte-identical",
            f"{what}: print(parse(print(m))) != print(m)",
        ))
    elif op_digest(reparsed) != op_digest(module):
        failures.append(FuzzFailure(
            case_seed, "roundtrip-digest",
            f"{what}: the structural digest moved across print -> parse",
        ))


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
        permuted = builtin.module()
        permuted.attributes.update(module.attributes)
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


def _relocation_check(case_seed: int, what: str, module: Operation,
                      failures: List[FuzzFailure]) -> None:
    failures.extend(
        FuzzFailure(case_seed, "relocatable-function-text",
                    f"{what}: {violation}")
        for violation in relocation_violations(module))


def op_list_violations(root: Operation) -> List[str]:
    """Which blocks under ``root`` hold an inconsistent op list (the
    container contract of DESIGN.md §11); empty when all is well."""
    violated = []
    for parent in root.walk():
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
    return violated


def _op_list_check(case_seed: int, what: str, module: Operation,
                   failures: List[FuzzFailure]) -> None:
    failures.extend(
        FuzzFailure(case_seed, "op-list-links", f"{what}: {violation}")
        for violation in op_list_violations(module))


def run_case(case_seed: int, differential: bool = False
             ) -> Tuple[CaseOutcome, List[FuzzFailure]]:
    """Build and interpret one case twice, checking every invariant."""
    failures: List[FuzzFailure] = []
    payload, script, rollback, before = _build_case(case_seed)
    _roundtrip_check(case_seed, "payload", payload, failures)
    _relocation_check(case_seed, "payload", payload, failures)
    _op_list_check(case_seed, "payload", payload, failures)
    _roundtrip_check(case_seed, "script", script, failures)
    outcome = _interpret(payload, script)
    _op_list_check(case_seed, "output", payload, failures)

    if differential and outcome.kind != "crash":
        _differential_check(case_seed, script, outcome, failures)
        _outline_check(case_seed, outcome, failures)

    if outcome.kind == "crash":
        failures.append(FuzzFailure(
            case_seed, "no-uncaught-exceptions", outcome.message
        ))
        return outcome, failures

    if outcome.kind in ("success", "silenceable"):
        try:
            payload.verify()
        except Exception as error:
            failures.append(FuzzFailure(
                case_seed, "payload-verifies-after-run",
                f"{type(error).__name__}: {error}",
            ))
        else:
            _roundtrip_check(case_seed, "output", payload, failures)
            _relocation_check(case_seed, "output", payload, failures)

    if rollback:
        if outcome.kind != "success":
            failures.append(FuzzFailure(
                case_seed, "rollback-case-succeeds",
                f"got {outcome.kind}: {outcome.message}",
            ))
        elif outcome.payload_print != before:
            failures.append(FuzzFailure(
                case_seed, "rollback-byte-identical",
                "payload print changed across a rolled-back alternative",
            ))

    # Stable classification: regenerate from the seed and re-run.
    payload2, script2, _rollback2, before2 = _build_case(case_seed)
    if before2 != before:
        failures.append(FuzzFailure(
            case_seed, "deterministic-generation",
            "payload generation is not a pure function of the seed",
        ))
    replay = _interpret(payload2, script2)
    if (replay.kind, replay.message) != (outcome.kind, outcome.message):
        failures.append(FuzzFailure(
            case_seed, "stable-classification",
            f"first run {outcome.kind}: {outcome.message!r}; "
            f"replay {replay.kind}: {replay.message!r}",
        ))
    elif replay.payload_print != outcome.payload_print:
        failures.append(FuzzFailure(
            case_seed, "deterministic-execution",
            "payload prints diverge between identical runs",
        ))

    if outcome.kind != "definite":
        payload3, script3, _rollback3, _before3 = _build_case(case_seed)
        expand_includes(script3)
        PassManager(["canonicalize", "cse"]).run(script3)
        normalized = _interpret(payload3, script3)
        if normalized.kind != outcome.kind:
            failures.append(FuzzFailure(
                case_seed, "normalize-keeps-status",
                f"as written {outcome.kind}: {outcome.message!r}; "
                f"normalized {normalized.kind}: {normalized.message!r}",
            ))
        elif normalized.payload_print != outcome.payload_print:
            failures.append(FuzzFailure(
                case_seed, "normalize-keeps-payload",
                "payload prints diverge between the schedule as written "
                "and normalized",
            ))
    return outcome, failures


def run_fuzz(seed: int = 0, cases: int = 200,
             differential: bool = False) -> FuzzReport:
    """Run ``cases`` fuzz cases derived from ``seed``."""
    report = FuzzReport(cases=cases)
    for index in range(cases):
        case_seed = seed * 1_000_003 + index
        outcome, failures = run_case(case_seed, differential)
        report.outcomes[outcome.kind] += 1
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
        "transform interpreter",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the run (default 0)")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of cases (default 200)")
    parser.add_argument("--case-seed", type=int, default=None,
                        help="re-run a single case by its case-seed "
                        "(as printed in a failure report)")
    parser.add_argument("--differential", action="store_true",
                        help="cross-check the static invalidation "
                        "analysis against the dynamic outcome of every "
                        "case (soundness + precision oracle)")
    parser.add_argument("--frontend", action="store_true",
                        help="fuzz the repro.frontend schedule builder "
                        "instead: random fluent chains must emit "
                        "lint-clean, round-trip-stable scripts, "
                        "reject stale handles at the Python level and "
                        "agree with the interpreter on a fixed payload, "
                        "stale uses replayed included")
    args = parser.parse_args(argv)

    if args.frontend:
        if args.case_seed is not None:
            outcome, failures = run_frontend_case(args.case_seed)
            print(f"case-seed {args.case_seed}: {outcome.kind} "
                  f"(interpreter: {outcome.message})")
            for failure in failures:
                print(f"  {failure}")
            return 0 if not failures else 1
        report = run_frontend_fuzz(args.seed, args.cases)
        print(report.render())
        return 0 if report.ok else 1

    if args.case_seed is not None:
        outcome, failures = run_case(args.case_seed, args.differential)
        print(f"case-seed {args.case_seed}: {outcome.kind}"
              + (f": {outcome.message}" if outcome.message else ""))
        for failure in failures:
            print(f"  {failure}")
        return 0 if not failures else 1

    report = run_fuzz(args.seed, args.cases, args.differential)
    print(report.render())
    return 0 if report.ok else 1




# ---------------------------------------------------------------------------
# Frontend builder fuzzing (--frontend)
# ---------------------------------------------------------------------------

_FRONTEND_MATCH_NAMES = ("scf.for", "linalg.matmul", "arith.addf",
                         "func.func", "memref.load")
_FRONTEND_PASSES = ("convert-scf-to-cf", "lower-affine",
                    "convert-arith-to-llvm")


class FrontendScheduleFuzzer:
    """Generate random transform scripts *through the builder API*.

    The invariant under test is the frontend's lint-clean-by-
    construction contract: whatever chain of fluent calls survives the
    builder's own checks must produce a script with zero
    error-severity ``repro-lint`` diagnostics and a digest-stable
    print→parse round-trip. About 30 % of the cases define and include
    a helper macro (which lint reads inlined); those must also pass
    ``expand_includes`` with no include left and a digest-stable
    round-trip of the flat script (``include-expands``).
    Along the way each case probes the
    Python-level use-after-consume guard with deliberately stale
    handles and records a violation if the builder fails to raise.
    Each built script must also carry no use-after-consume issue of
    any severity from the analysis the builder steps
    (``may_alias=False``), and, interpreted on a fixed payload
    (:func:`_frontend_payload`), pass the ``--differential`` oracle.
    Each rejected probe is then replayed in the script
    (:func:`_replay_stale_uses`): builder, analysis and interpreter
    must agree the handle is dead.
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


def run_frontend_case(case_seed: int
                      ) -> Tuple[CaseOutcome, List[FuzzFailure]]:
    """Build one random schedule through the builder and check the
    frontend invariants. The outcome's message is the status class the
    interpreter reached on the dynamic leg."""
    from ..analysis.invalidation import analyze_script
    from ..analysis.lint import lint_script
    from ..ir.diagnostics import Severity
    from ..ir.hashing import op_digest
    from ..ir.parser import parse

    failures: List[FuzzFailure] = []
    rng = random.Random(case_seed)
    fuzzer = FrontendScheduleFuzzer(rng)
    try:
        schedule = fuzzer.build()
        script = schedule.build()
    except Exception as error:  # pragma: no cover - a found bug
        failures.append(FuzzFailure(
            case_seed, "frontend-containment",
            f"builder raised {type(error).__name__}: {error}\n"
            + traceback.format_exc(limit=8),
        ))
        return CaseOutcome("crash", str(error), ""), failures

    for violation in fuzzer.violations:
        failures.append(FuzzFailure(
            case_seed, "frontend-use-after-consume", violation))

    engine = lint_script(script)
    errors = [d for d in engine.diagnostics
              if d.severity is Severity.ERROR]
    if errors:
        failures.append(FuzzFailure(
            case_seed, "frontend-lint-clean",
            "builder-emitted script has error diagnostics: "
            + "; ".join(str(d) for d in errors)
            + "\n" + print_op(script),
        ))

    text = print_op(script)
    if op_digest(parse(text, "<frontend-fuzz>")) != op_digest(script):
        failures.append(FuzzFailure(
            case_seed, "frontend-roundtrip",
            "print->parse changed the structural digest\n" + text,
        ))

    if next(script.walk_ops("transform.include"), None) is not None:
        # A macro is a function: the inliner expands every include,
        # and the flat script is as printable.
        expanded = script.clone()
        try:
            expand_includes(expanded)
        except ScriptTransformError as error:
            problem = f"expand_includes raised: {error}"
        else:
            flat = print_op(expanded)
            problem = (
                "a transform.include is left"
                if next(expanded.walk_ops("transform.include"), None)
                else "print->parse changed the expanded script's digest"
                if op_digest(parse(flat, "<expanded>")) != op_digest(expanded)
                else None)
        if problem is not None:
            failures.append(FuzzFailure(
                case_seed, "include-expands", f"{problem}\n{text}"))

    # The dynamic leg: the interpreter on a fixed payload agrees with
    # both static readings of the script.
    dynamic = _interpret(_frontend_payload(), script)
    if dynamic.kind == "crash":
        failures.append(FuzzFailure(case_seed, "no-uncaught-exceptions",
                                    dynamic.message))
    _differential_check(case_seed, script, dynamic, failures)
    flagged = analyze_script(script, may_alias=False)
    if flagged:
        failures.append(FuzzFailure(
            case_seed, "frontend-analysis-clean",
            f"the builder accepted a handle the analysis flags: "
            f"{flagged[0]}\n{text}"))
    probes = _replay_stale_uses(case_seed, script, fuzzer.stale_uses,
                                failures)

    kind = "clean" if not failures else "violated"
    return CaseOutcome(kind, dynamic.kind, text, probes=probes), failures


def _replay_stale_uses(case_seed: int, script: Operation,
                       stale_uses: List[Tuple[Operation, Value]],
                       failures: List[FuzzFailure]) -> Counter:
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
        try:
            severities = [
                issue.severity
                for issue in analyze_script(script, may_alias=False)
                if issue.use_op.name == "transform.print"
                and issue.use_op._str_attr("message") == marker]
            outcome = _interpret(_frontend_payload(), script)
        finally:
            probe.erase()
        counts["probes"] += 1
        if not severities:
            failures.append(FuzzFailure(
                case_seed, "stale-print-flagged",
                f"no use-after-consume issue at the replayed probe "
                f"{marker}\n{print_op(script)}"))
        else:
            counts["lint errors" if ERROR in severities
                   else "lint warnings"] += 1
        ran = f"[transform.print] {marker}"
        if any(out.split("\n", 1)[0] == ran for out in outcome.printed):
            failures.append(FuzzFailure(
                case_seed, "stale-print-fails",
                f"the interpreter ran the replayed probe {marker}"))
        elif outcome.stopped_at is probe:
            if "invalidated by" in outcome.message:
                counts["reached"] += 1
            else:
                failures.append(FuzzFailure(
                    case_seed, "stale-print-fails",
                    f"the replayed probe {marker} failed with "
                    f"{outcome.message!r}"))
    return counts


def _frontend_payload() -> Operation:
    """The payload of the ``--frontend`` dynamic leg: a matmul and a
    batched matmul, with trip counts some tile sizes do not divide and
    small enough that full unrolls stay cheap."""
    from ..execution.workloads import (
        build_batch_matmul_module, build_matmul_module,
    )

    module = build_matmul_module(6, 4, 8)
    for op in list(build_batch_matmul_module(2, 4, 6, 4).body.ops):
        module.body.append(op)
    return module


def run_frontend_fuzz(seed: int = 0, cases: int = 200) -> FuzzReport:
    """Fuzz the schedule builder API (the ``--frontend`` mode). The
    report counts each case's verdict and, beside it, the status class
    the interpreter reached on the dynamic leg."""
    report = FuzzReport(cases=cases)
    for index in range(cases):
        case_seed = seed * 1_000_003 + index
        outcome, failures = run_frontend_case(case_seed)
        report.outcomes[outcome.kind] += 1
        if outcome.kind != "crash":  # else the message is the error
            report.outcomes[outcome.message] += 1
        report.probes.update(outcome.probes)
        report.failures.extend(failures)
    return report


if __name__ == "__main__":
    import sys

    sys.exit(main())
