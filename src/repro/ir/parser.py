"""Textual IR parser for the MLIR generic form.

Parses the output of :mod:`repro.ir.printer` (and hand-written IR in the
same syntax) back into in-memory operations. Dialects with custom types
register a type parser via :func:`register_type_parser` keyed on the
dialect prefix of ``!dialect.kind`` tokens.

The lexer is one compiled alternation run once over the whole text by
``re.split`` (no per-lexeme Python loop); tokens are plain strings whose
class (:func:`token_kind`) follows from the first characters. What the
printer spells the same way every time is *one* lexeme: a shaped type
up to its dimension list, and its closing ``>`` when the element type
is a builtin scalar (``tensor<4x?x8xf32>``, ``memref<?x4x``); an
operand list of values (``(%0, %1)``); and a signature whose every type
is one such lexeme (``(tensor<4xf32>, i32) -> tensor<4xf32>``), which
the parser's per-parse intern table maps to its ``FunctionType``. A
token's line and column are worked out only where a location is
materialised: an operation's ``FileLineColLoc`` and a
:class:`ParseError`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .attributes import (
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
from .location import FileLineColLoc
from .types import (
    DYNAMIC,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    LLVMPointerType,
    LLVMStructType,
    MemRefLayout,
    MemRefType,
    NoneType,
    OpaqueType,
    TensorType,
    Type,
    VectorType,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

#: Whitespace and comments.
_SKIP = r"\s*(?://[^\n]*\s*)*"
_SKIP_RE = re.compile(_SKIP)

_SCALAR = r"(?:[su]?i\d+|f\d+|index)"
_NAME = r"[A-Za-z0-9_.$\-]"
_SHAPED = r"(?:tensor|vector|memref)<(?:(?:\d+|\?)x)*"
_VALUE = r"%[A-Za-z0-9_#$.\-]+"
#: A type the lexer lets into a signature lexeme: a shaped type closed
#: by its builtin scalar, a scalar, or a dialect type with no ``<``
#: parameters. In a list the ``, `` or ``)`` after it ends it; last in
#: the signature, lookaheads do, the one for a dialect type up front
#: (and refusing a ``//`` comment too) so that a type with parameters
#: fails before it is matched.
_TYPE = "(?:" + _SHAPED + _SCALAR + ">|" + _SCALAR + "|none|![A-Za-z_]" + _NAME + "*)"
_LAST_TYPE = ("(?:" + _SHAPED + _SCALAR + ">|(?:" + _SCALAR + "|none)(?!" + _NAME
              + r")|!(?!" + _NAME + r"*\s*[</])[A-Za-z_]" + _NAME + "*(?!" + _NAME + "))")
#: A type list after its ``(``, up to and including the ``)``.
_TYPES = "(?:" + _TYPE + "(?:, " + _TYPE + r")*)?\)"

#: Group 1 is a lexeme, group 2 the whitespace and comments after it,
#: so ``split`` yields ``[junk, lexeme, skipped] * n + [junk]`` where
#: every ``junk`` is empty unless the text has a character no rule
#: matches. A ``(`` is tried first, as the two fused lexemes in the
#: printer's spelling, an operand list and a signature, or else alone;
#: then the other punctuation, the most frequent class; among the rest
#: the order decides: the shaped-type lexeme and the numbers
#: (``inf``/``nan`` included) win over identifiers.
_TOKEN_RE = re.compile("(" + "|".join([
    r"\((?:" + _VALUE + "(?:, " + _VALUE + r")*\)|" + _TYPES + r" -> (?:\("
    + _TYPES + "|" + _LAST_TYPE + "))?",
    r"[)\[\]{}<>,:=*+?]",
    r'"(?:[^"\\]|\\.)*"',
    "->",
    _VALUE,
    r"[\^@]" + _NAME + "+",
    "![A-Za-z_]" + _NAME + "*",
    _SHAPED + "(?:" + _SCALAR + ">)?",
    r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?|-?(?:inf|nan)\b",
    "[A-Za-z_]" + _NAME + "*",
]) + ")(" + _SKIP + ")")

_SHAPED_RE = re.compile(r"(\w+)<((?:(?:\d+|\?)x)*)(.*)")
#: A fused lexeme's tokens, each with the skipped space after it.
_PIECES_RE = re.compile(r"([(),]|[^(), ]+)( ?)")

_KIND_BY_FIRST_CHAR: Dict[str, str] = {
    "": "eof", '"': "string", "%": "value", "^": "block", "@": "symbol",
    "!": "typetok", "-": "number", "_": "ident",
}


def token_kind(token: str) -> str:
    """The lexical class of ``token``: ``string``, ``arrow``, ``value``,
    ``block``, ``symbol``, ``typetok``, ``number``, ``ident`` (shaped-type
    lexemes included), ``operands`` and ``signature`` (the two fused
    lexemes), ``punct`` or ``eof`` (the empty sentinel)."""
    first = token[:1]
    kind = _KIND_BY_FIRST_CHAR.get(first)
    if kind is None:
        if first.isdecimal():
            return "number"
        if first.isalpha():
            return "number" if token in ("inf", "nan") else "ident"
        if first == "(" and token != "(":
            return "operands" if token[1] == "%" else "signature"
        return "punct"
    if first == "-" and token == "->":
        return "arrow"
    return kind


class ParseError(Exception):
    """Raised on malformed input; :meth:`Parser.error` appends the
    ``at line L:C near '<lexeme>'`` position."""


# ---------------------------------------------------------------------------
# Extensible dialect type parsing
# ---------------------------------------------------------------------------

#: Maps a dialect prefix (e.g. ``transform``) to a callable that receives
#: the parser and the full ``!dialect.kind`` token text and returns a Type.
TYPE_PARSERS: Dict[str, Callable[["Parser", str], Type]] = {}


def register_type_parser(prefix: str,
                         fn: Callable[["Parser", str], Type]) -> None:
    TYPE_PARSERS[prefix] = fn


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SCALAR_TYPE_RE = re.compile(r"(si|ui|i)(\d+)|f(\d+)|index|none")
_SIGNED = {"i": None, "si": True, "ui": False}
_KEYWORD_ATTRS = {"unit": UnitAttr(), "true": BoolAttr(True),
                  "false": BoolAttr(False)}
_SHAPED_TYPES = {"tensor": TensorType, "vector": VectorType,
                 "memref": MemRefType}


class Parser:
    def __init__(self, text: str, filename: str = "<string>"):
        self.text = text
        self.filename = filename
        # Lexing starts after the leading whitespace and comments, so a
        # comment is only ever skipped whole, never searched for lexemes.
        lead = _SKIP_RE.match(text).end()
        self._parts = _TOKEN_RE.split(text[lead:])
        #: Lexemes as plain strings, closed by the empty ``eof`` sentinel.
        self.tokens: List[str] = self._parts[1::3]
        self.tokens.append("")
        #: (part, its offset, its line) of the last position asked for.
        self._start = self._cursor = (0, lead, text.count("\n", 0, lead) + 1)
        self.index = 0
        if any(self._parts[::3]):
            junk = next(i for i, part in enumerate(self._parts[::3]) if part)
            char = self._parts[3 * junk][0]
            raise self._error_at(f"unexpected character {char!r}", 3 * junk, char)
        #: One-token types and signature lexemes seen by this parse
        #: (types are immutable values, so every occurrence shares one
        #: object).
        self._types: Dict[str, Type] = {}
        self._signatures: Dict[str, Tuple[Tuple[Type, ...], ...]] = {}
        self.value_scope: List[Dict[str, Value]] = [{}]
        self.block_scope: List[Dict[str, Block]] = [{}]

    # -- positions and errors ------------------------------------------------

    def _line_col(self, part: int) -> Tuple[int, int]:
        """Where ``_parts[part]`` starts (token ``i`` is part ``3i+1``),
        counted on from the last position asked for: op locations are
        asked for in text order, so a parse sums each part's length once."""
        at, offset, line = self._cursor
        if part < at:
            at, offset, line = self._start
        end = offset + sum(map(len, self._parts[at:part]))
        line += self.text.count("\n", offset, end)
        self._cursor = (part, end, line)
        return line, end - self.text.rfind("\n", 0, end)

    def _error_at(self, message: str, part: int, near: str) -> ParseError:
        line, col = self._line_col(part)
        return ParseError(f"{message} at line {line}:{col} near {near!r}")

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """A :class:`ParseError` positioned at token ``index`` (default:
        the current token)."""
        if index is None:
            index = self.index
        return self._error_at(message, 3 * index + 1, self.tokens[index])

    def _name_error(self, message: str, name: str, near: int) -> ParseError:
        """An error at the first token ``name`` at or after token
        ``near``, operand-list lexemes on the way split into theirs."""
        while self.tokens[near] != name:
            if token_kind(self.tokens[near]) == "operands":
                self._split(near)
            near += 1
        return self.error(message, near)

    def _split(self, index: int) -> None:
        """Replace fused lexeme ``index`` by the tokens it fused, each
        at its own offset. Called on the way to an error (or for a
        dialect type that reads past its lexeme), so the splice and the
        offset count starting over cost no other parse."""
        pieces = _PIECES_RE.findall(self.tokens[index])
        pieces[-1] = (pieces[-1][0], self._parts[3 * index + 2])
        self.tokens[index:index + 1] = [token for token, _ in pieces]
        self._parts[3 * index + 1:3 * index + 3] = [
            part for piece in pieces for part in ("", *piece)][1:]
        self._cursor = self._start

    # -- token plumbing ------------------------------------------------------

    def advance(self) -> str:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def check(self, text: str) -> bool:
        return self.tokens[self.index] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.index] == text:
            self.index += 1
            return True
        return False

    def expect(self, text: str) -> str:
        if self.tokens[self.index] != text:
            raise self.error(f"expected {text!r}")
        self.index += 1
        return text

    def expect_kind(self, kind: str) -> str:
        token = self.tokens[self.index]
        if token_kind(token) != kind:
            raise self.error(f"expected {kind}")
        self.index += 1
        return token

    # -- value and block scoping ----------------------------------------------

    def define_value(self, name: str, value: Value, near: int) -> None:
        """Bind ``name`` in the current region; ``near`` is a token
        index at or before the defining occurrence of ``name``."""
        scope = self.value_scope[-1]
        if name in scope:
            raise self._name_error(f"redefinition of SSA value {name}",
                                   name, near)
        scope[name] = value

    def lookup_value(self, name: str, near: int) -> Value:
        for scope in reversed(self.value_scope):
            if name in scope:
                return scope[name]
        raise self._name_error(f"use of undefined value {name}", name, near)

    def lookup_block(self, name: str) -> Block:
        scope = self.block_scope[-1]
        if name not in scope:
            scope[name] = Block()
        return scope[name]

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        token = self.tokens[self.index]
        if token[:1] == "(":
            return self.parse_function_type()
        if token_kind(token) not in ("typetok", "ident"):
            raise self.error("expected type")
        return self._lexeme_type(token, self.index)

    def _lexeme_type(self, token: str, index: int) -> Type:
        """The type spelled from lexeme ``token`` of token ``index`` on,
        the parser just past that token; memoized if it is all of it."""
        self.index = index + 1
        parsed = self._types.get(token)
        if parsed is not None:
            return parsed
        if token[0] == "!":
            parsed = self._dialect_type(token, index)
        elif "<" in token:
            parsed = self._parse_shaped_type(token)
        else:
            parsed = _scalar_type(token)
            if parsed is None:
                raise self.error(f"unknown type {token!r}", index)
        if self.index == index + 1:
            self._types[token] = parsed
        return parsed

    def _parse_shaped_type(self, token: str) -> Type:
        """``token`` is a shaped-type lexeme: ``tensor<4x?x8xf32>`` whole,
        or ``memref<?x4x`` with the element type (and, for a memref, the
        layout and memory space) still ahead."""
        keyword, dims, element_text = _SHAPED_RE.fullmatch(token).groups()
        shape = tuple(DYNAMIC if dim == "?" else int(dim)
                      for dim in dims.split("x")[:-1])
        if element_text:
            return _SHAPED_TYPES[keyword](
                shape, _scalar_type(element_text[:-1]))
        if self.check("*"):
            raise self.error("unranked shapes unsupported")
        element = self.parse_type()
        tail: Tuple = ()
        if keyword == "memref" and self.accept(","):
            # ``, strided<...>``, ``, strided<...>, 1`` or ``, 1``.
            layout = self.parse_strided_layout() if self.check("strided") else None
            tail = (layout, int(self.expect_kind("number"))
                    if layout is None or self.accept(",") else 0)
        self.expect(">")
        return _SHAPED_TYPES[keyword](shape, element, *tail)

    def parse_strided_layout(self) -> MemRefLayout:
        self.expect("strided")
        self.expect("<")
        self.expect("[")
        strides: List[int] = []
        while not self.accept("]"):
            strides.append(self._parse_dim())
            self.accept(",")
        offset = 0
        if self.accept(","):
            self.expect("offset")
            self.expect(":")
            offset = self._parse_dim()
        self.expect(">")
        return MemRefLayout(offset, tuple(strides))

    def _parse_dim(self) -> int:
        return DYNAMIC if self.accept("?") else int(self.expect_kind("number"))

    def _parse_type_list(self) -> List[Type]:
        """Types up to and including the closing ``)``."""
        tokens, i, parsed = self.tokens, self.index, []
        while tokens[i] != ")":
            self.index = i
            parsed.append(self.parse_type())
            i = self.index + (tokens[self.index] == ",")
        self.index = i + 1
        return parsed

    def _parse_signature(self) -> Tuple[Sequence[Type], Sequence[Type]]:
        """``(inputs) -> results``, as two sequences: token by token, or
        from one signature lexeme, whose types the lexer let in only as
        single lexemes."""
        start = self.index
        token = self.tokens[start]
        if token == "(" or token[1] == "%":  # not a signature lexeme
            self.expect("(")
            inputs = self._parse_type_list()
            self.expect("->")
            if self.accept("("):
                return inputs, self._parse_type_list()
            return inputs, [self.parse_type()]
        self.index = start + 1
        signature = self._signatures.get(token)
        if signature is None:
            try:  # the inputs, then the results (parenthesised or not)
                signature = tuple(
                    tuple(self._lexeme_type(spelling, start)
                          for spelling in types.strip("()").split(", ") if spelling)
                    for types in token[1:].split(") -> "))
            except ParseError:
                pass
            if signature is None or self.index != start + 1:
                # A type that failed or read past the lexeme: read its
                # tokens one by one, which say where it went wrong.
                self._split(start)
                self.index = start
                return self._parse_signature()
            self._signatures[token] = signature
        return signature

    def parse_function_type(self) -> FunctionType:
        inputs, results = self._parse_signature()
        return FunctionType(tuple(inputs), tuple(results))

    def _dialect_type(self, token: str, index: int) -> Type:
        """The type ``!dialect.kind`` lexeme ``token`` (token ``index``)
        starts; a dialect's type parser reads on after that token."""
        body = token[1:]  # strip '!'
        dialect = body.split(".", 1)[0]
        parser_fn = TYPE_PARSERS.get(dialect)
        if parser_fn is not None:
            return parser_fn(self, token)
        if body == "llvm.ptr":
            return LLVMPointerType()
        if body == "llvm.struct":
            self.expect("<")
            self.expect("(")
            members = self._parse_type_list()
            self.expect(">")
            return LLVMStructType(tuple(members))
        if "." in body:
            return OpaqueType(*body.split(".", 1))
        raise self.error(f"unknown dialect type {token!r}", index)

    # -- attributes -------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        token = self.tokens[self.index]
        kind = token_kind(token)
        if kind == "string":
            self.index += 1
            return StringAttr(_unescape(token[1:-1]))
        if kind == "number":
            self.index += 1
            cls, value = ((FloatAttr, float(token)) if _is_float_literal(token)
                          else (IntegerAttr, int(token)))
            return cls(value, self.parse_type()) if self.accept(":") else cls(value)
        if kind == "symbol":
            self.index += 1
            nested: List[str] = []
            while self.check(":") and self.tokens[self.index + 1] == ":":
                self.index += 2
                nested.append(self.expect_kind("symbol")[1:])
            return SymbolRefAttr(token[1:], tuple(nested))
        if token in _KEYWORD_ATTRS:
            self.index += 1
            return _KEYWORD_ATTRS[token]
        if token == "[":
            self.index += 1
            values: List[Attribute] = []
            while not self.accept("]"):
                values.append(self.parse_attribute())
                self.accept(",")
            return ArrayAttr(tuple(values))
        if token == "{":
            return DictAttr(tuple(self.parse_attr_dict().items()))
        if token == "dense":
            self.index += 1
            self.expect("<")
            self.expect("[")
            literals: List[str] = []
            while not self.accept("]"):
                literals.append(self.expect_kind("number"))
                self.accept(",")
            self.expect(">")
            self.expect(":")
            dense_type = self.parse_type()
            element = getattr(dense_type, "element_type", None)
            if isinstance(element, FloatType) or any(
                    _is_float_literal(lit) for lit in literals):
                return DenseFloatAttr(tuple(map(float, literals)), dense_type)
            return DenseIntAttr(tuple(map(int, literals)), dense_type)
        # Fall back to a type attribute.
        return TypeAttr(self.parse_type())

    def parse_attr_dict(self) -> Dict[str, Attribute]:
        self.expect("{")
        out: Dict[str, Attribute] = {}
        while not self.accept("}"):
            name = self.tokens[self.index]
            kind = token_kind(name)
            if kind == "string":
                name = _unescape(name[1:-1])
            elif kind != "ident":
                raise self.error("expected attribute name")
            self.index += 1
            out[name] = self.parse_attribute() if self.accept("=") else UnitAttr()
            self.accept(",")
        return out

    # -- operations ---------------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a single top-level operation (usually builtin.module)."""
        op = self.parse_operation()
        if self.tokens[self.index]:
            raise self.error("trailing input after top-level op")
        return op

    def parse_operation(self) -> Operation:
        tokens = self.tokens
        start = i = self.index
        location = FileLineColLoc(self.filename, *self._line_col(3 * start + 1))
        result_names: List[str] = []
        if tokens[i][:1] == "%":
            result_names.append(tokens[i])
            i += 1
            while tokens[i] == ",":
                if tokens[i + 1][:1] != "%":
                    raise self.error("expected value", i + 1)
                result_names.append(tokens[i + 1])
                i += 2
            if tokens[i] != "=":
                raise self.error("expected '='", i)
            i += 1
        name_index = i
        if tokens[i][:1] != '"':
            raise self.error("expected string", i)
        op_name = _unescape(tokens[i][1:-1])
        i += 1
        if tokens[i][:2] == "(%":
            operand_names = tokens[i][1:-1].split(", ")
            i += 1
        elif tokens[i] != "(":
            raise self.error("expected '('", i)
        else:
            operand_names = []
            i += 1
            while tokens[i] != ")":
                if tokens[i][:1] != "%":
                    raise self.error("expected value", i)
                operand_names.append(tokens[i])
                i += 2 if tokens[i + 1] == "," else 1
            i += 1

        self.index = i
        successors: List[Block] = []
        if self.accept("["):
            while not self.accept("]"):
                successors.append(self.lookup_block(self.expect_kind("block")))
                self.accept(",")

        regions_blocks: List[List[Block]] = []
        if tokens[self.index] == "(" and tokens[self.index + 1] == "{":
            self.index += 1  # '('
            regions_blocks.append(self.parse_region_blocks())
            while self.accept(","):
                regions_blocks.append(self.parse_region_blocks())
            self.expect(")")

        attributes: Dict[str, Attribute] = {}
        if tokens[self.index] == "{":
            attributes = self.parse_attr_dict()

        i = self.index
        if tokens[i] != ":":
            raise self.error("expected ':'", i)
        self.index = i + 1
        if tokens[i + 1][:1] != "(":
            raise self.error("expected '('")
        input_types, result_types = self._parse_signature()
        if len(input_types) != len(operand_names):
            raise self.error(f"{op_name}: operand count does not match type", name_index)
        if len(result_types) != len(result_names):
            raise self.error(f"{op_name}: result count does not match type", name_index)

        operands = [self.lookup_value(n, name_index) for n in operand_names]
        op = Operation.create(op_name, operands, result_types, attributes,
                              len(regions_blocks), successors, location)
        for region, blocks in zip(op.regions, regions_blocks):
            # ``({})`` is how a block-less region *and* a lone empty
            # block print; it reads as the latter unless the op's class
            # gives the former a meaning (a func.func declaration).
            if not blocks and not getattr(op, "EMPTY_REGION_IS_BLOCKLESS", False):
                blocks = [Block()]
            for block in blocks:
                region.add_block(block)
        for name, result in zip(result_names, op.results):
            self.define_value(name, result, start)
        return op

    def parse_region_blocks(self) -> List[Block]:
        """Parse ``{ ... }``: an entry block plus labelled blocks (no
        block at all for an empty ``{}``)."""
        self.expect("{")
        self.value_scope.append({})
        self.block_scope.append({})
        blocks: List[Block] = []

        while self.tokens[self.index] != "}":
            if self.tokens[self.index][:1] == "^":
                label = self.advance()
                block = self.lookup_block(label)
                if self.accept("("):
                    while not self.accept(")"):
                        arg_index = self.index
                        arg_name = self.expect_kind("value")
                        self.expect(":")
                        arg = block.add_arg(self.parse_type())
                        self.define_value(arg_name, arg, arg_index)
                        self.accept(",")
                self.expect(":")
                blocks.append(block)
            else:
                if not blocks:
                    blocks.append(Block())
                blocks[-1].append(self.parse_operation())
        self.expect("}")
        self.value_scope.pop()
        self.block_scope.pop()
        return blocks


def _is_float_literal(text: str) -> bool:
    """True for number tokens that denote floats (``1.5``, ``1e-30``,
    ``inf``/``-inf``/``nan``), false for plain integers."""
    return not text.lstrip("-").isdecimal()


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _scalar_type(text: str) -> Optional[Type]:
    """The builtin non-shaped type spelled ``text``, if any."""
    match = _SCALAR_TYPE_RE.fullmatch(text)
    if match is None:
        return None
    signedness, width, float_width = match.groups()
    if width:
        return IntegerType(int(width), _SIGNED[signedness])
    if float_width:
        return FloatType(int(float_width))
    return IndexType() if text == "index" else NoneType()


def parse(text: str, filename: str = "<string>") -> Operation:
    """Parse textual IR; returns the single top-level operation."""
    return Parser(text, filename).parse_module()
