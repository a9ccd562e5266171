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

from .attributes import Attribute
from .core import Block, Operation, Value


def _print_attr_dict(attributes: Dict[str, Attribute]) -> str:
    if not attributes:
        return ""
    if len(attributes) == 1:  # nothing to sort
        for key, value in attributes.items():
            return " {" + key + " = " + str(value) + "}"
    return " {" + ", ".join(
        [key + " = " + str(value)
         for key, value in sorted(attributes.items())]) + "}"


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


def _print_into(op: Operation, indent: str, lines: List[str],
                values: Dict[Value, str], blocks: Dict[Block, str]) -> None:
    """Append the lines of ``op``, each behind ``indent``, to ``lines``.

    One frame per nesting level, and per op only what its line needs.
    A value or block is named the first time it is met, with the size
    of its table (names are never dropped, so that is the next free
    number)."""
    head = indent
    results = op.results
    if len(results) == 1:
        value = results[0]
        name = values.get(value)
        if name is None:
            name = values[value] = f"%{len(values)}"
        head += name + " = "
        out_types = str(value.type)
    elif not results:
        out_types = "()"
    else:
        for index, value in enumerate(results):
            name = values.get(value)
            if name is None:
                name = values[value] = f"%{len(values)}"
            head += ", " + name if index else name
        head += " = "
        out_types = "(" + ", ".join(
            [str(value.type) for value in results]) + ")"
    names = in_types = ""
    for operand in op._operands:
        value = operand._value
        name = values.get(value)
        if name is None:
            name = values[value] = f"%{len(values)}"
        if names:
            names += ", " + name
            in_types += ", " + str(value.type)
        else:
            names = name
            in_types = str(value.type)
    head += '"' + op.name + '"(' + names + ")"
    if op.successors:
        names = ""
        for block in op.successors:
            name = blocks.get(block)
            if name is None:
                name = blocks[block] = f"^bb{len(blocks)}"
            names = names + ", " + name if names else name
        head += "[" + names + "]"
    tail = " : (" + in_types + ") -> " + out_types
    if op.attributes:
        tail = _print_attr_dict(op.attributes) + tail
    if not op.regions:
        lines.append(head + tail)
        return
    lines.append(head + " ({")
    inner = indent + "  "
    for index, region in enumerate(op.regions):
        if index:
            lines.append(indent + "}, {")
        # An entry block's label may be omitted when it has no
        # arguments and is the only block; it is kept for arguments.
        labelled = len(region.blocks) > 1
        for block in region.blocks:
            if labelled or block.args:
                names = ""
                for value in block.args:
                    name = values.get(value)
                    if name is None:
                        name = values[value] = f"%{len(values)}"
                    name += ": " + str(value.type)
                    names = names + ", " + name if names else name
                name = blocks.get(block)
                if name is None:
                    name = blocks[block] = f"^bb{len(blocks)}"
                lines.append(indent + name + "(" + names + "):")
            for child in block.ops:
                _print_into(child, inner, lines, values, blocks)
    lines.append(indent + "})" + tail)


class Printer:
    """The name tables of one printing session: values and blocks keep
    the ``%N`` / ``^bbN`` they were first printed under across
    :meth:`print_op` calls.

    The tables key on the Value/Block objects themselves (identity
    hash, strong references), not ``id()``: keying on ``id()`` lets a
    value erased between two prints free its integer for a freshly
    allocated one, aliasing two distinct values onto one name — the
    same ``id()``-reuse class the greedy driver's reverse index hit.
    """

    def __init__(self) -> None:
        self.value_names: Dict[Value, str] = {}
        self.block_names: Dict[Block, str] = {}

    def print_op(self, op: Operation, indent: str = "") -> str:
        """The text of ``op`` and its regions, every line behind
        ``indent``."""
        lines: List[str] = []
        _print_into(op, indent, lines, self.value_names, self.block_names)
        return "\n".join(lines)


def print_op(op: Operation) -> str:
    """Print a single operation (and nested regions) to a string."""
    return Printer().print_op(op)


#: What :func:`shift_names` cuts printed IR at: a string literal (the
#: lexer's own rule, so a ``"%3"`` inside an attribute is a string and
#: not a name), an SSA value name, or a block name.
_NAME_RE = re.compile(r'''("(?:[^"\\]|\\.)*"|%\d+|\^bb\d+)''')


def shift_names(text: str, value_delta: int,
                block_delta: int) -> Tuple[str, int, int]:
    """Relocate printed IR: every ``%N`` becomes ``%(N + value_delta)``
    and every ``^bbN`` ``^bb(N + block_delta)``; string literals (op
    names, attributes) are skipped over, never rewritten. The deltas
    are signed — text goes down as well as up — and a name that would
    land below zero is a ``ValueError``: ``text`` was not numbered
    where the caller thought.

    Also returns how many value and block names ``text`` holds (highest
    index + 1, as numbered before the shift) — for text numbered from
    ``%0``/``^bb0``, the bases the next function of a module starts
    from."""
    parts = _NAME_RE.split(text)
    renamed: Dict[str, str] = {}
    values = blocks = 0
    for index in range(1, len(parts), 2):
        token = parts[index]
        shifted = renamed.get(token)
        if shifted is None:
            shifted = token
            number = 0
            if token[0] == "%":
                number = int(token[1:])
                if number >= values:
                    values = number + 1
                number += value_delta
                shifted = f"%{number}"
            elif token[0] == "^":
                number = int(token[3:])
                if number >= blocks:
                    blocks = number + 1
                number += block_delta
                shifted = f"^bb{number}"
            if number < 0:
                raise ValueError(f"{token} would be shifted below zero")
            renamed[token] = shifted
        parts[index] = shifted
    return "".join(parts), values, blocks


def move_names(text: str, names: Tuple[int, int, int, int],
               value_base: int, block_base: int) -> str:
    """Printed IR whose names sit at ``names``, with them starting at
    ``%value_base``/``^bbblock_base`` instead.

    ``names`` is ``(value_base, values, block_base, blocks)`` as read
    off a :class:`Printer`'s table sizes before and after the print:
    ``text`` holds ``values`` value names from ``%value_base`` on and
    ``blocks`` block names from ``^bbblock_base`` on. It comes back as
    it is when they already start at the given bases, through
    :func:`shift_names` by the difference otherwise.

    The recorded bases are checked against the text (``ValueError``),
    the counts are taken on trust: the printer numbers in
    first-encounter order, so the first name of each kind is its
    lowest and is found without reading past it."""
    was_value, values, was_block, blocks = names
    expected = {}
    if values:
        expected["%"] = f"%{was_value}"
    if blocks:
        expected["^"] = f"^bb{was_block}"
    matches = _NAME_RE.finditer(text)
    while expected:
        match = next(matches, None)
        token = match.group() if match else ""  # "": the text ran out
        # A string literal, or a kind already seen, stands for itself.
        if not token or expected.pop(token[0], token) != token:
            raise ValueError(
                f"not numbered from %{was_value}/^bb{was_block}: {token!r}")
    value_delta = value_base - was_value if values else 0
    block_delta = block_base - was_block if blocks else 0
    if value_delta or block_delta:
        text = shift_names(text, value_delta, block_delta)[0]
    return text
