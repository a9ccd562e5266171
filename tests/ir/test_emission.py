"""The back end against its reference.

The printer as it was before it became a single pass is kept verbatim
below, beside a plain digest encoder that feeds the hash one field at
a time (their own names: ``Printer``, ``print_op``, ``_compute``,
``_header``, …; the shipped ones are reached through ``printer.`` /
``hashing.``), and they are compared byte for byte, digest for digest
and memo for memo. The call budgets of one print and one cold digest
of a lowered model close the file. DESIGN.md §12 is the prose.
"""

import hashlib
import random
import sys
from typing import Dict, List, Tuple

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
from repro.ir.core import DIGEST_STATS, Block, Operation, Value
from repro.ir.hashing import _DOMAIN, _PACK, _name, _text

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
# Reference: the digest encoding, one ``update`` per field
# ---------------------------------------------------------------------------


def _header(op: Operation, update, value_reference, block_reference) -> None:
    """Feed ``op``'s name, result types, operands, attributes and
    successors, resolving each operand and successor to its reference."""
    update(_name(op.name))
    update(_PACK(len(op.results)))
    for result in op.results:
        update(_name(str(result.type)))
    update(_PACK(len(op.operands)))
    for value in op.operands:
        update(value_reference(value))
        update(_name(str(value.type)))
    update(_PACK(len(op.attributes)))
    for key, attribute in sorted(op.attributes.items()):
        update(_name(key))
        update(_text(print_attribute(attribute)))
    update(_PACK(len(op.successors)))
    for successor in op.successors:
        update(block_reference(successor))


def _compute(op: Operation) -> Tuple[bytes, tuple, tuple]:
    """Digest of ``op``'s subtree plus its free values/blocks, memoized
    on ops with regions: the root's header and region count, then per
    block its argument types and per child op either the child's header
    (a leaf) or ``b"R"``, the child's digest and its free values and
    blocks as references of this level."""
    memo = op._digest
    if memo is not None:
        DIGEST_STATS.hits += 1
        return memo
    DIGEST_STATS.recomputes += 1
    pack = _PACK
    hasher = hashlib.sha256(_DOMAIN)
    update = hasher.update
    free_values: List[Value] = []
    free_blocks: List[Block] = []
    #: value or block -> its reference, ``b"L" + path`` for what
    #: ``op``'s regions define, ``b"F" + index`` for what they do not.
    references: Dict[object, bytes] = {}

    def value_reference(value: Value) -> bytes:
        if value not in references:
            references[value] = b"F" + pack(len(free_values))
            free_values.append(value)
        return references[value]

    def block_reference(block: Block) -> bytes:
        if block not in references:
            references[block] = b"F" + pack(len(free_blocks))
            free_blocks.append(block)
        return references[block]

    _header(op, update, value_reference, block_reference)
    update(pack(len(op.regions)))
    for region_index, region in enumerate(op.regions):
        update(pack(len(region.blocks)))
        # Blocks and their arguments first: a branch may target a
        # later block.
        for block_index, block in enumerate(region.blocks):
            path = b"L" + pack(region_index) + pack(block_index)
            references[block] = path
            for arg_index, arg in enumerate(block.args):
                references[arg] = path + b"a" + pack(arg_index)
        for block_index, block in enumerate(region.blocks):
            path = b"L" + pack(region_index) + pack(block_index) + b"r"
            update(pack(len(block.args)))
            for arg in block.args:
                update(_name(str(arg.type)))
            update(pack(len(block.ops)))
            for op_index, child in enumerate(block.ops):
                if child.regions:
                    digest, child_values, child_blocks = _compute(child)
                    update(b"R")
                    update(digest)
                    update(pack(len(child_values)))
                    for value in child_values:
                        update(value_reference(value))
                    update(pack(len(child_blocks)))
                    for target in child_blocks:
                        update(block_reference(target))
                else:
                    _header(child, update, value_reference, block_reference)
                for result_index, result in enumerate(child.results):
                    references[result] = \
                        path + pack(op_index) + pack(result_index)
    memo = (hasher.digest(), tuple(free_values), tuple(free_blocks))
    if op.regions:
        op._digest = memo
    return memo


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
    operand: a use the printer and the digest meet before the
    definition, which the parser does not read but a pass can make."""
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


def _memos(root, compute):
    """Every op's memo, in walk order, after a cold ``compute(root)``."""
    for op in root.walk():
        op._digest = None
    compute(root)
    return [op._digest for op in root.walk()]


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


def test_digests_and_memos_match_the_reference(corpus):
    small, models = corpus
    for module in small + models:
        expected = _memos(module, _compute)
        # Values and blocks compare by identity, so this is "the same
        # free references in the same order" on every op, as the root
        # of its own subtree.
        assert _memos(module, hashing._compute) == expected
    for module in small:
        for op in module.walk():
            if op.regions:
                assert _memos(op, hashing._compute) == _memos(op, _compute)
            else:  # hashed on its own, a leaf is not memoized
                assert hashing._compute(op) == _compute(op)
                assert op._digest is None


def _redigest(compute):
    """Digest a module, mutate one function, digest again: the digests
    and what the second one cost in memo traffic."""
    module = _shapes()
    before = compute(module)[0]
    victim = next(op for op in module.walk() if op.name == "test.use")
    victim.set_attr("mutated", 1)
    baseline = DIGEST_STATS.snapshot()
    after = compute(module)[0]
    return before, after, DIGEST_STATS.since(baseline)


def test_redigest_reuses_the_same_memos_as_the_reference():
    expected = _redigest(_compute)
    assert _redigest(hashing._compute) == expected
    before, after, traffic = expected
    assert before != after
    # module, two_regions, scf.if — test.use is a leaf, hashed inside
    # scf.if — and nothing of `branchy`.
    assert traffic["hash_recomputes"] == 3
    assert traffic["hash_hits"] > 0


def test_module_digest_composes_like_the_reference(corpus):
    # Use before definition (``_shapes``) leaves a function with a free
    # value, which ``module_digest`` excludes; ``SHAPES`` as parsed has
    # none.
    for module in [parse(SHAPES)] + corpus[0][1:]:
        functions = _functions(module)
        if functions:
            assert hashing.module_digest(
                module.attributes, [hashing.op_digest(f) for f in functions]
            ) == _compute(module)[0].hex()


# ---------------------------------------------------------------------------
# One spelling per attribute
# ---------------------------------------------------------------------------


def _one_of_each_class():
    from repro.ir.affine import AffineMap
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
        AffineMapAttr(AffineMap.identity(2)),
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
        assert spelling == printer.print_attribute(attribute)
        if isinstance(attribute, AffineMapAttr):
            continue  # the parser has never read ``affine_map<…>``
        holder = Operation.create("test.op", attributes={"a": attribute})
        assert parse(printer.print_op(holder)).attributes["a"] == attribute


# ---------------------------------------------------------------------------
# Call budget
# ---------------------------------------------------------------------------

#: Python-level + C-level calls of ``print_op`` and of a cold
#: ``op_digest`` over squeezenet after the TOSA pipeline (239 ops),
#: measured 5 143 (print, on the interpreter the guard was written on)
#: and 6 329 (digest with inline leaves, CPython 3.11); the references
#: above make 15 979 and 15 724. The ceilings leave ~10 % for
#: interpreter versions and fail a per-value method call, a list built
#: per operand read or a generator per dense element long before that.
PRINT_CALLS_CEILING = 5_650
DIGEST_CALLS_CEILING = 6_960


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
    # Memo fills (type spellings, packed names) are not emission work.
    printer.print_op(module)
    hashing.op_digest(module)
    assert _calls(printer.print_op, module) <= PRINT_CALLS_CEILING
    for op in module.walk():
        op._digest = None
    assert _calls(hashing.op_digest, module) <= DIGEST_CALLS_CEILING
    # The reference is what the budget is measured against.
    assert _calls(print_op, module) > 2 * PRINT_CALLS_CEILING
