"""Textual IR printer (MLIR generic form).

Prints operations in MLIR's *generic* syntax, which every op supports:

.. code-block::

    %0 = "arith.addi"(%arg0, %1) : (i32, i32) -> i32
    "scf.for"(%lb, %ub, %step) ({
    ^bb0(%iv: index):
      ...
    }) : (index, index, index) -> ()

The output round-trips through :mod:`repro.ir.parser`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .attributes import (
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
from .core import Block, Operation, Value


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


#: First line of every printed ``builtin.module``.
_MODULE_HEADER = '"builtin.module"() ({'


def _module_footer(attributes: Dict[str, Attribute]) -> str:
    return "})" + _print_attr_dict(attributes) + " : () -> ()"


def module_text(body: str, attributes: Dict[str, Attribute]) -> str:
    """The print of a ``builtin.module`` carrying ``attributes`` whose
    top-level ops print (at indent 1) as the lines ``body``: a module
    adds one line above and one below them, nothing else — which is
    what lets :mod:`repro.service.sharding` wrap and unwrap function
    text without the parser."""
    return f"{_MODULE_HEADER}\n{body}\n{_module_footer(attributes)}"


def module_body(text: str, attributes: Dict[str, Attribute]) -> str:
    """Inverse of :func:`module_text`: the lines between the first and
    last of a printed module. Raises ``ValueError`` unless ``text``
    opens like a module, closes with exactly the footer of one
    carrying ``attributes`` and has a body in between."""
    head = _MODULE_HEADER + "\n"
    tail = "\n" + _module_footer(attributes)
    if not (text.startswith(head) and text.endswith(tail)
            and len(text) > len(head) + len(tail)):
        raise ValueError(
            f"not a printed module closing with {tail[1:]!r}")
    return text[len(head):-len(tail)]


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


def value_name(op: Operation, value: Value) -> str:
    """The ``%N`` name ``value`` would get when printing ``op``."""
    printer = Printer()
    printer.print_op(op)
    return printer.names.value_names.get(value, "<unknown>")


#: What :func:`shift_names` cuts printed IR at: a string literal (the
#: lexer's own rule, so a ``"%3"`` inside an attribute is a string and
#: not a name), an SSA value name, or a block name.
_NAME_RE = re.compile(r'''("(?:[^"\\]|\\.)*"|%\d+|\^bb\d+)''')


def shift_names(text: str, value_base: int,
                block_base: int) -> Tuple[str, int, int]:
    """Relocate printed IR: every ``%N`` becomes ``%(N + value_base)``
    and every ``^bbN`` ``^bb(N + block_base)``; string literals (op
    names, attributes) are skipped over, never rewritten.

    Also returns how many value and block names ``text`` holds (highest
    index + 1, as numbered before the shift) — the bases the next
    function of a module starts from."""
    parts = _NAME_RE.split(text)
    renamed: Dict[str, str] = {}
    values = blocks = 0
    for index in range(1, len(parts), 2):
        token = parts[index]
        shifted = renamed.get(token)
        if shifted is None:
            shifted = token
            if token[0] == "%":
                number = int(token[1:])
                if number >= values:
                    values = number + 1
                shifted = f"%{number + value_base}"
            elif token[0] == "^":
                number = int(token[3:])
                if number >= blocks:
                    blocks = number + 1
                shifted = f"^bb{number + block_base}"
            renamed[token] = shifted
        parts[index] = shifted
    return "".join(parts), values, blocks
