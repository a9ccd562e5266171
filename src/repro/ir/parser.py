"""Textual IR parser for the MLIR generic form.

Parses the output of :mod:`repro.ir.printer` (and hand-written IR in the
same syntax) back into in-memory operations. Dialects with custom types
register a type parser via :func:`register_type_parser` keyed on the
dialect prefix of ``!dialect.kind`` tokens.

The lexer is one compiled alternation run once over the whole text by
``re.split`` (no per-lexeme Python loop); tokens are plain strings whose
class (:func:`token_kind`) follows from the first character. A shaped
type's keyword, ``<`` and dimension list — and the closing ``>`` when
the element type is a builtin scalar — are *one* lexeme
(``tensor<4x?x8xf32>``, ``memref<?x4x``), so the common type is one
token and one lookup in the parser's per-parse intern table. Offsets
are kept per token and turned into line/column only where a location
is materialised: an operation's ``FileLineColLoc`` and a
:class:`ParseError`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

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

#: Group 1 is a lexeme, group 2 the whitespace and comments after it,
#: so ``split`` yields ``[junk, lexeme, skipped] * n + [junk]`` where
#: every ``junk`` is empty unless the text has a character no rule
#: matches. Punctuation is tried first because it is the most frequent
#: class and starts no other lexeme; among the rest the order decides:
#: the shaped-type lexeme and the numbers (``inf``/``nan`` included)
#: win over identifiers.
_TOKEN_RE = re.compile(
    r"""(
    [()\[\]{}<>,:=*+?]
  | "(?:[^"\\]|\\.)*"
  | ->
  | %[A-Za-z0-9_#$.\-]+
  | [\^@][A-Za-z0-9_$.\-]+
  | ![A-Za-z_][A-Za-z0-9_.$\-]*
  | (?:tensor|vector|memref)<(?:(?:\d+|\?)x)*(?:(?:[su]?i\d+|f\d+|index)>)?
  | -?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?|-?(?:inf|nan)\b
  | [A-Za-z_][A-Za-z0-9_.$\-]*
    )(""" + _SKIP + ")",
    re.VERBOSE,
)

_SHAPED_RE = re.compile(r"(\w+)<((?:(?:\d+|\?)x)*)(.*)")
_NEWLINE_RE = re.compile(r"\n")

_KIND_BY_FIRST_CHAR: Dict[str, str] = {
    "": "eof", '"': "string", "%": "value", "^": "block", "@": "symbol",
    "!": "typetok", "-": "number", "_": "ident",
}


def token_kind(token: str) -> str:
    """The lexical class of ``token``: ``string``, ``arrow``, ``value``,
    ``block``, ``symbol``, ``typetok``, ``number``, ``ident`` (shaped-type
    lexemes included), ``punct`` or ``eof`` (the empty sentinel)."""
    first = token[:1]
    kind = _KIND_BY_FIRST_CHAR.get(first)
    if kind is None:
        if first.isdecimal():
            return "number"
        if first.isalpha():
            return "number" if token in ("inf", "nan") else "ident"
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

_INT_TYPE_RE = re.compile(r"^(si|ui|i)(\d+)$")
_FLOAT_TYPE_RE = re.compile(r"^f(\d+)$")
_SHAPED_TYPES = {"tensor": TensorType, "vector": VectorType,
                 "memref": MemRefType}


class Parser:
    def __init__(self, text: str, filename: str = "<string>"):
        self.text = text
        self.filename = filename
        # Lexing starts after the leading whitespace and comments, so a
        # comment is only ever skipped whole, never searched for lexemes.
        lead = _SKIP_RE.match(text).end()
        parts = _TOKEN_RE.split(text[lead:])
        #: Lexemes as plain strings, closed by the empty ``eof`` sentinel.
        self.tokens: List[str] = parts[1::3]
        self.tokens.append("")
        #: ``_offsets[i]`` is where ``tokens[i]`` starts in ``text``.
        self._offsets = list(accumulate(map(len, parts), initial=lead))[1::3]
        self._line_starts: Optional[List[int]] = None
        self.index = 0
        if any(parts[::3]):
            junk = next(i for i in range(0, len(parts), 3) if parts[i])
            offset = lead + sum(map(len, parts[:junk]))
            raise self._error_at(
                f"unexpected character {text[offset]!r}", offset, text[offset])
        #: One-token types seen by this parse (types are immutable
        #: values, so every occurrence shares one object).
        self._types: Dict[str, Type] = {}
        self.value_scope: List[Dict[str, Value]] = [{}]
        self.block_scope: List[Dict[str, Block]] = [{}]

    # -- positions and errors ------------------------------------------------

    def _line_col(self, offset: int) -> Tuple[int, int]:
        if self._line_starts is None:
            self._line_starts = [0]
            self._line_starts.extend(
                m.end() for m in _NEWLINE_RE.finditer(self.text))
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def _location(self) -> FileLineColLoc:
        return FileLineColLoc(
            self.filename, *self._line_col(self._offsets[self.index]))

    def _error_at(self, message: str, offset: int, near: str) -> ParseError:
        line, col = self._line_col(offset)
        return ParseError(f"{message} at line {line}:{col} near {near!r}")

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """A :class:`ParseError` positioned at token ``index`` (default:
        the current token)."""
        if index is None:
            index = self.index
        return self._error_at(message, self._offsets[index],
                              self.tokens[index])

    # -- token plumbing ------------------------------------------------------

    @property
    def token(self) -> str:
        return self.tokens[self.index]

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
            raise self.error(f"redefinition of SSA value {name}",
                             self.tokens.index(name, near))
        scope[name] = value

    def lookup_value(self, name: str, near: int) -> Value:
        for scope in reversed(self.value_scope):
            if name in scope:
                return scope[name]
        raise self.error(f"use of undefined value {name}",
                         self.tokens.index(name, near))

    def lookup_block(self, name: str) -> Block:
        scope = self.block_scope[-1]
        if name not in scope:
            scope[name] = Block()
        return scope[name]

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        start = self.index
        token = self.tokens[start]
        interned = self._types.get(token)
        if interned is not None:
            self.index = start + 1
            return interned
        if token == "(":
            return self.parse_function_type()
        kind = token_kind(token)
        if kind == "typetok":
            parsed = self.parse_dialect_type()
        elif kind == "ident":
            parsed = self.parse_builtin_type()
        else:
            raise self.error("expected type")
        if self.index == start + 1:
            self._types[token] = parsed
        return parsed

    def parse_builtin_type(self) -> Type:
        token = self.advance()
        if "<" in token:
            return self._parse_shaped_type(token)
        scalar = _scalar_type(token)
        if scalar is None:
            raise self.error(f"unknown type {token!r}", self.index - 1)
        return scalar

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
            layout = None
            memory_space = 0
            if self.check("strided"):
                layout = self.parse_strided_layout()
                if self.accept(","):
                    memory_space = int(self.expect_kind("number"))
            else:
                memory_space = int(self.expect_kind("number"))
            tail = (layout, memory_space)
        self.expect(">")
        return _SHAPED_TYPES[keyword](shape, element, *tail)

    def parse_strided_layout(self) -> MemRefLayout:
        self.expect("strided")
        self.expect("<")
        self.expect("[")
        strides: List[int] = []
        while not self.accept("]"):
            if self.accept("?"):
                strides.append(DYNAMIC)
            else:
                strides.append(int(self.expect_kind("number")))
            self.accept(",")
        offset = 0
        if self.accept(","):
            self.expect("offset")
            self.expect(":")
            if self.accept("?"):
                offset = DYNAMIC
            else:
                offset = int(self.expect_kind("number"))
        self.expect(">")
        return MemRefLayout(offset, tuple(strides))

    def _parse_type_list(self) -> List[Type]:
        """Types up to and including the closing ``)``."""
        types: List[Type] = []
        while not self.accept(")"):
            types.append(self.parse_type())
            self.accept(",")
        return types

    def _parse_signature(self) -> Tuple[List[Type], List[Type]]:
        """``(inputs) -> results``, as two lists."""
        self.expect("(")
        inputs = self._parse_type_list()
        self.expect("->")
        if self.accept("("):
            return inputs, self._parse_type_list()
        return inputs, [self.parse_type()]

    def parse_function_type(self) -> FunctionType:
        inputs, results = self._parse_signature()
        return FunctionType(tuple(inputs), tuple(results))

    def parse_dialect_type(self) -> Type:
        token = self.expect_kind("typetok")
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
            dialect_name, kind = body.split(".", 1)
            return OpaqueType(dialect_name, kind)
        raise self.error(f"unknown dialect type {token!r}", self.index - 1)

    # -- attributes -------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        token = self.tokens[self.index]
        kind = token_kind(token)
        if kind == "string":
            self.index += 1
            return StringAttr(_unescape(token[1:-1]))
        if kind == "number":
            self.index += 1
            if _is_float_literal(token):
                if self.accept(":"):
                    return FloatAttr(float(token), self.parse_type())
                return FloatAttr(float(token))
            if self.accept(":"):
                return IntegerAttr(int(token), self.parse_type())
            return IntegerAttr(int(token))
        if kind == "symbol":
            self.index += 1
            nested: List[str] = []
            while self.check(":") and self.tokens[self.index + 1] == ":":
                self.index += 2
                nested.append(self.expect_kind("symbol")[1:])
            return SymbolRefAttr(token[1:], tuple(nested))
        if token == "unit":
            self.index += 1
            return UnitAttr()
        if token == "true":
            self.index += 1
            return BoolAttr(True)
        if token == "false":
            self.index += 1
            return BoolAttr(False)
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
                _is_float_literal(lit) for lit in literals
            ):
                return DenseFloatAttr(
                    tuple(float(lit) for lit in literals), dense_type
                )
            return DenseIntAttr(
                tuple(int(lit) for lit in literals), dense_type
            )
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
            if self.accept("="):
                out[name] = self.parse_attribute()
            else:
                out[name] = UnitAttr()
            self.accept(",")
        return out

    # -- operations ---------------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a single top-level operation (usually builtin.module)."""
        op = self.parse_operation()
        if self.token:
            raise self.error("trailing input after top-level op")
        return op

    def parse_operation(self) -> Operation:
        start = self.index
        location = self._location()
        result_names: List[str] = []
        if self.tokens[start][:1] == "%":
            result_names.append(self.advance())
            while self.accept(","):
                result_names.append(self.expect_kind("value"))
            self.expect("=")
        name_index = self.index
        op_name = _unescape(self.expect_kind("string")[1:-1])

        self.expect("(")
        operand_names: List[str] = []
        while not self.accept(")"):
            operand_names.append(self.expect_kind("value"))
            self.accept(",")

        successors: List[Block] = []
        if self.accept("["):
            while not self.accept("]"):
                successors.append(
                    self.lookup_block(self.expect_kind("block")))
                self.accept(",")

        regions_blocks: List[List[Block]] = []
        if self.check("(") and self.tokens[self.index + 1] == "{":
            self.index += 1  # '('
            while True:
                regions_blocks.append(self.parse_region_blocks())
                if not self.accept(","):
                    break
            self.expect(")")

        attributes: Dict[str, Attribute] = {}
        if self.check("{"):
            attributes = self.parse_attr_dict()

        self.expect(":")
        input_types, result_types = self._parse_signature()
        if len(input_types) != len(operand_names):
            raise self.error(
                f"{op_name}: operand count does not match type", name_index
            )
        if len(result_types) != len(result_names):
            raise self.error(
                f"{op_name}: result count does not match type", name_index
            )

        operands = [self.lookup_value(n, name_index) for n in operand_names]
        op = Operation.create(
            op_name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            regions=len(regions_blocks),
            successors=successors,
            location=location,
        )
        for region, blocks in zip(op.regions, regions_blocks):
            # ``({})`` is how a block-less region *and* a lone empty
            # block print; it reads as the latter unless the op's class
            # gives the former a meaning (a func.func declaration).
            if not blocks and not getattr(op, "EMPTY_REGION_IS_BLOCKLESS",
                                          False):
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

        def current_block() -> Block:
            if not blocks:
                blocks.append(Block())
            return blocks[-1]

        while not self.check("}"):
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
                current_block().append(self.parse_operation())
        self.expect("}")
        self.value_scope.pop()
        self.block_scope.pop()
        return blocks


def _is_float_literal(text: str) -> bool:
    """True for number tokens that denote floats (``1.5``, ``1e-30``,
    ``inf``/``-inf``/``nan``), false for plain integers."""
    return (
        "." in text
        or "e" in text
        or "E" in text
        or "inf" in text
        or "nan" in text
    )


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _scalar_type(text: str) -> Optional[Type]:
    """The builtin non-shaped type spelled ``text``, if any."""
    int_match = _INT_TYPE_RE.match(text)
    if int_match:
        prefix, width = int_match.group(1), int(int_match.group(2))
        signed = {"i": None, "si": True, "ui": False}[prefix]
        return IntegerType(width, signed)
    float_match = _FLOAT_TYPE_RE.match(text)
    if float_match:
        return FloatType(int(float_match.group(1)))
    if text == "index":
        return IndexType()
    if text == "none":
        return NoneType()
    return None


def parse(text: str, filename: str = "<string>") -> Operation:
    """Parse textual IR; returns the single top-level operation."""
    return Parser(text, filename).parse_module()
