"""The back end against its reference.

The printer as it was before it became a single pass is kept verbatim
below (its own names: ``Printer``, ``print_op``, …; the shipped ones
are reached through ``printer.``), and the two are compared byte for
byte. A digest is the hash of the print (:mod:`repro.ir.hashing`), so
the printer is the one serializer to check. The call budgets of one
print and one cold digest of a lowered model close the file. DESIGN.md
§12 is the prose.
"""

import random
import sys
from typing import Dict, List

import pytest

import repro.core  # noqa: F401 — registers the transform dialect
import repro.dialects  # noqa: F401 — registers payload ops
from repro.ir import hashing, parse, printer
from repro.ir.attributes import (
    AffineMapAttr,
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseFloatAttr,
    DenseIntAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from repro.ir.core import Block, Operation, Value

# ---------------------------------------------------------------------------
# Reference: the printer before it became a single pass, verbatim
# ---------------------------------------------------------------------------


class _NameManager:
    """Assigns stable ``%N`` / ``%argN`` / ``^bbN`` names while printing.

    The tables key on the Value/Block objects themselves (identity
    hash, strong references), not ``id()``: keying on ``id()`` lets a
    value erased mid-print free its integer for a freshly allocated
    one, aliasing two distinct values onto one name — the same
    ``id()``-reuse class the greedy driver's reverse index hit.
    """

    def __init__(self) -> None:
        self.value_names: Dict[Value, str] = {}
        self.block_names: Dict[Block, str] = {}
        self.next_value = 0
        self.next_block = 0

    def name_value(self, value: Value) -> str:
        name = self.value_names.get(value)
        if name is None:
            name = f"%{self.next_value}"
            self.value_names[value] = name
            self.next_value += 1
        return name

    def name_block_arg(self, value: Value) -> str:
        return self.name_value(value)

    def name_block(self, block: Block) -> str:
        name = self.block_names.get(block)
        if name is None:
            name = f"^bb{self.next_block}"
            self.block_names[block] = name
            self.next_block += 1
        return name


def print_attribute(attribute: Attribute) -> str:
    """Render an attribute in parseable textual form."""
    if isinstance(attribute, UnitAttr):
        return "unit"
    if isinstance(attribute, BoolAttr):
        return "true" if attribute.value else "false"
    if isinstance(attribute, IntegerAttr):
        return f"{attribute.value} : {attribute.type}"
    if isinstance(attribute, FloatAttr):
        value = repr(float(attribute.value))
        return f"{value} : {attribute.type}"
    if isinstance(attribute, StringAttr):
        escaped = attribute.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(attribute, TypeAttr):
        return str(attribute.value)
    if isinstance(attribute, SymbolRefAttr):
        return str(attribute)
    if isinstance(attribute, ArrayAttr):
        return "[" + ", ".join(print_attribute(v) for v in attribute.values) + "]"
    if isinstance(attribute, DictAttr):
        inner = ", ".join(
            f"{k} = {print_attribute(v)}" for k, v in attribute.entries
        )
        return "{" + inner + "}"
    if isinstance(attribute, (DenseIntAttr, DenseFloatAttr)):
        inner = ", ".join(str(v) for v in attribute.values)
        return f"dense<[{inner}]> : {attribute.type}"
    if isinstance(attribute, AffineMapAttr):
        return f"affine_map<{attribute.map}>"
    return str(attribute)


def _print_attr_dict(attributes: Dict[str, Attribute]) -> str:
    if not attributes:
        return ""
    inner = ", ".join(
        f"{key} = {print_attribute(value)}"
        for key, value in sorted(attributes.items())
    )
    return " {" + inner + "}"


class Printer:
    """Stateful printer holding the name manager and indentation."""

    def __init__(self) -> None:
        self.names = _NameManager()
        self.lines: List[str] = []
        self.indent = 0

    def _emit(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def print_op(self, op: Operation) -> None:
        parts: List[str] = []
        if op.results:
            names = ", ".join(self.names.name_value(r) for r in op.results)
            parts.append(f"{names} = ")
        parts.append(f'"{op.name}"')
        operand_names = ", ".join(
            self.names.name_value(v) for v in op.operands
        )
        parts.append(f"({operand_names})")
        if op.successors:
            succ = ", ".join(self.names.name_block(s) for s in op.successors)
            parts.append(f"[{succ}]")
        header = "".join(parts)
        if op.regions:
            self._emit(header + " ({")
            for i, region in enumerate(op.regions):
                if i > 0:
                    self._emit("}, {")
                self.indent += 1
                self.print_region_body(region)
                self.indent -= 1
            self._emit("})" + self._op_suffix(op))
        else:
            self._emit(header + self._op_suffix(op))

    def _op_suffix(self, op: Operation) -> str:
        attr_txt = _print_attr_dict(op.attributes)
        in_types = ", ".join(str(v.type) for v in op.operands)
        out_types = ", ".join(str(r.type) for r in op.results)
        if len(op.results) == 1:
            type_txt = f" : ({in_types}) -> {op.results[0].type}"
        else:
            type_txt = f" : ({in_types}) -> ({out_types})"
        return f"{attr_txt}{type_txt}"

    def print_region_body(self, region) -> None:
        for block_index, block in enumerate(region.blocks):
            # The entry block label may be omitted when it has no
            # arguments and there's a single block; keep it for arguments.
            if block.args or block_index > 0 or len(region.blocks) > 1:
                args = ", ".join(
                    f"{self.names.name_value(a)}: {a.type}" for a in block.args
                )
                label = self.names.name_block(block)
                self.indent -= 1
                self._emit(f"{label}({args}):")
                self.indent += 1
            for op in block.ops:
                self.print_op(op)

    def result(self) -> str:
        return "\n".join(self.lines)


def print_op(op: Operation) -> str:
    """Print a single operation (and nested regions) to a string."""
    printer = Printer()
    printer.print_op(op)
    return printer.result()



# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

#: A multi-block function with successors (a forward reference, a
#: block entered from two branches) next to an op with two regions, an
#: op using one value twice, a multi-result op and attributes of every
#: count the printer treats apart (0, 1, several).
SHAPES = '''
"builtin.module"() ({
  "func.func"() ({
  ^bb0(%c: i1, %x: i32):
    "cf.cond_br"(%c, %x, %x)[^bb1, ^bb2] : (i1, i32, i32) -> ()
  ^bb1(%y: i32):
    %d = "arith.addi"(%y, %y) {overflow = "none"} : (i32, i32) -> i32
    "cf.br"(%d)[^bb3] : (i32) -> ()
  ^bb2(%z: i32):
    "cf.br"(%z)[^bb3] : (i32) -> ()
  ^bb3(%w: i32):
    %p, %q = "test.pair"(%w, %x, %w) {b = [1 : i64, "s\\"q"], a = 2.0 : f32, c} : (i32, i32, i32) -> (i32, index)
    "func.return"(%p) : (i32) -> ()
  }) {sym_name = "branchy", function_type = (i1, i32) -> i32} : () -> ()
  "func.func"() ({
  ^bb0(%c: i1, %x: tensor<4x?xf32>):
    %r = "scf.if"(%c) ({
      %t = "test.use"(%x, %x) : (tensor<4x?xf32>, tensor<4x?xf32>) -> tensor<4x?xf32>
      "scf.yield"(%t) : (tensor<4x?xf32>) -> ()
    }, {
      "scf.yield"(%x) : (tensor<4x?xf32>) -> ()
    }) : (i1) -> tensor<4x?xf32>
    "test.graph"() ({
      %late = "test.source"() {value = dense<[1, 2, 3]> : tensor<3xi32>} : () -> i32
      "test.sink"(%late) : (i32) -> ()
    }) : () -> ()
    "func.return"(%r) : (tensor<4x?xf32>) -> ()
  }) {sym_name = "two_regions", function_type = (i1, tensor<4x?xf32>) -> tensor<4x?xf32>} : () -> ()
}) {module_attr = @sym::@nested} : () -> ()
'''


def _shapes():
    """``SHAPES`` with ``test.sink`` moved above the op defining its
    operand: a use the printer meets before the definition, which the
    parser does not read but a pass can make."""
    module = parse(SHAPES)
    sink = next(op for op in module.walk() if op.name == "test.sink")
    sink.move_before(sink.prev_op)
    return module


def _lowered(model):
    from repro.mlmodels import build_model
    from repro.passes.manager import PassManager
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

    module = build_model(model)
    PassManager(list(TOSA_TO_LINALG_PIPELINE)).run(module)
    return module


@pytest.fixture(scope="module")
def corpus():
    """(modules small enough to emit op by op, model graphs before and
    after the TOSA pipeline)."""
    from repro.mlmodels import build_model
    from repro.testing.fuzz import PayloadFuzzer, ScheduleFuzzer

    small = [_shapes()]
    for seed in range(20):
        rng = random.Random(seed)
        small.append(PayloadFuzzer(rng).module())
        small.append(ScheduleFuzzer(rng).sequence())
    models = []
    for model in ("squeezenet", "whisper_decoder"):
        models += [build_model(model), _lowered(model)]
    return small, models


def _functions(module):
    return [op for op in module.regions[0].blocks[0].ops
            if op.name == "func.func"] if module.regions else []


def test_shapes_cover_what_the_printer_treats_apart():
    ops = list(_shapes().walk())
    assert any(len(op.regions) == 2 for op in ops)
    assert any(len(region.blocks) > 2 for op in ops for region in op.regions)
    assert any(len(op.successors) == 2 for op in ops)
    assert any(len(op.results) == 2 for op in ops)
    assert any(len(set(op.operands)) < len(op.operands) for op in ops)
    assert {len(op.attributes) for op in ops} >= {0, 1, 3}
    sink = next(op for op in ops if op.name == "test.sink")
    assert sink.is_before_in_block(sink.operands[0].owner)


def test_print_matches_the_reference(corpus):
    small, models = corpus
    for module in small + models:
        assert printer.print_op(module) == print_op(module)
        # The function-tier entry shape: own tables, one indent.
        for function in _functions(module):
            reference = Printer()
            reference.indent = 1
            reference.print_op(function)
            assert printer.Printer().print_op(function, "  ") \
                == reference.result()
    for module in small:
        # Rooted anywhere: outer values and blocks are named on use.
        for op in module.walk():
            assert printer.print_op(op) == print_op(op)


def test_a_printer_keeps_its_names_across_calls():
    first, second = _functions(_shapes())
    reference = Printer()
    session = printer.Printer()
    for function in (first, second, first):
        reference.lines = []
        reference.print_op(function)
        assert session.print_op(function) == reference.result()
    assert session.value_names == reference.names.value_names
    assert session.block_names == reference.names.block_names


# ---------------------------------------------------------------------------
# One spelling per attribute
# ---------------------------------------------------------------------------


def _one_of_each_class():
    from repro.ir.affine import AffineDim, AffineMap
    from repro.ir.types import F32, I32, tensor

    return [
        UnitAttr(), BoolAttr(True), BoolAttr(False), IntegerAttr(-3, I32),
        FloatAttr(1, F32), FloatAttr(2.5), FloatAttr(float("inf"), F32),
        StringAttr('a"b\\c'), TypeAttr(tensor(4, -1)),
        SymbolRefAttr("f", ("g", "h")),
        ArrayAttr((FloatAttr(1, F32), StringAttr('"'), ArrayAttr(()))),
        DictAttr((("k", FloatAttr(1, F32)), ("s", StringAttr("\\")))),
        DenseIntAttr((1, 2, 3), tensor(3, element_type=I32)), DenseIntAttr(()),
        DenseFloatAttr((1.0, 2.5e-30)), DenseFloatAttr((1, 2), tensor(2)),
        AffineMapAttr(AffineMap(2, 0, (AffineDim(0), AffineDim(1)))),
    ]


def test_str_is_the_spelling_the_printer_used_and_parses_back(corpus):
    small, models = corpus
    attributes = _one_of_each_class()
    assert {type(a) for a in attributes} == set(Attribute.__subclasses__())
    for module in small + models:
        for op in module.walk():
            attributes.extend(op.attributes.values())
    for attribute in attributes:
        spelling = str(attribute)
        assert spelling == print_attribute(attribute)
        if isinstance(attribute, AffineMapAttr):
            continue  # the parser has never read ``affine_map<…>``
        holder = Operation.create("test.op", attributes={"a": attribute})
        assert parse(printer.print_op(holder)).attributes["a"] == attribute


# ---------------------------------------------------------------------------
# Call budget
# ---------------------------------------------------------------------------

#: Python-level + C-level calls of ``print_op`` over squeezenet after
#: the TOSA pipeline (239 ops), measured 5 143 on the interpreter the
#: guard was written on; the reference above makes 15 979. The ceiling
#: leaves ~10 % for interpreter versions and fails a per-value method
#: call, a list built per operand read or a generator per dense
#: element long before that.
PRINT_CALLS_CEILING = 5_650
#: What a cold ``op_digest`` of the same module may make beyond a
#: print: it prints its one function and hashes that, measured 18
#: calls over ``print_op``'s (4 075 vs 4 057, CPython 3.11).
DIGEST_CALLS_OVER_PRINT = 25


def _calls(function, *args):
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return calls[0]


def test_emission_call_counts_stay_under_their_ceilings():
    """A back-end regression fails here on any host: calls are a work
    count no timer is needed for (the technique of
    ``tests/ir/test_lexer.py``'s parse ceiling)."""
    module = _lowered("squeezenet")
    # Memo fills (type spellings) are not emission work.
    printer.print_op(module)
    hashing.op_digest(module)
    assert _calls(printer.print_op, module) <= PRINT_CALLS_CEILING
    assert _calls(hashing.op_digest, module) \
        <= PRINT_CALLS_CEILING + DIGEST_CALLS_OVER_PRINT
    # The reference is what the budget is measured against.
    assert _calls(print_op, module) > 2 * PRINT_CALLS_CEILING
