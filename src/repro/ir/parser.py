"""Textual IR parser for the MLIR generic form.

Parses the output of :mod:`repro.ir.printer` (and hand-written IR in the
same syntax) back into in-memory operations. Dialects with custom types
register a type parser via :func:`register_type_parser` keyed on the
dialect prefix of ``!dialect.kind`` tokens.
"""

from __future__ import annotations

import re
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<value>%[A-Za-z0-9_#$.\-]+)
  | (?P<block>\^[A-Za-z0-9_$.\-]+)
  | (?P<symbol>@[A-Za-z0-9_$.\-]+)
  | (?P<typetok>![A-Za-z_][A-Za-z0-9_.$\-]*)
  | (?P<number>-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?|-?(?:inf|nan)\b)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.$\-]*)
  | (?P<punct>[()\[\]{}<>,:=*+]|\?)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "pos", "line", "col")

    def __init__(self, kind: str, text: str, pos: int, line: int, col: int):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


class ParseError(Exception):
    """Raised on malformed input."""

    def __init__(self, message: str, token: Optional[Token] = None):
        location = ""
        if token is not None:
            location = f" at line {token.line}:{token.col} near {token.text!r}"
        super().__init__(message + location)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at line {line}"
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            tokens.append(
                Token(kind, value, pos, line, pos - line_start + 1)
            )
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", pos, line, 0))
    return tokens


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


class Parser:
    def __init__(self, text: str, filename: str = "<string>"):
        self.tokens = tokenize(text)
        self.index = 0
        self.filename = filename
        self.value_scope: List[Dict[str, Value]] = [{}]
        self.block_scope: List[Dict[str, Block]] = [{}]

    # -- token plumbing ------------------------------------------------------

    @property
    def token(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def check(self, text: str) -> bool:
        return self.token.text == text

    def accept(self, text: str) -> bool:
        if self.token.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.token.text != text:
            raise ParseError(f"expected {text!r}", self.token)
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        if self.token.kind != kind:
            raise ParseError(f"expected {kind}", self.token)
        return self.advance()

    def _location(self) -> FileLineColLoc:
        return FileLineColLoc(self.filename, self.token.line, self.token.col)

    # -- value and block scoping ----------------------------------------------

    def define_value(self, name: str, value: Value) -> None:
        self.value_scope[-1][name] = value

    def lookup_value(self, name: str) -> Value:
        for scope in reversed(self.value_scope):
            if name in scope:
                return scope[name]
        raise ParseError(f"use of undefined value {name}")

    def lookup_block(self, name: str) -> Block:
        scope = self.block_scope[-1]
        if name not in scope:
            scope[name] = Block()
        return scope[name]

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        token = self.token
        if token.kind == "typetok":
            return self.parse_dialect_type()
        if token.text == "(":
            return self.parse_function_type()
        if token.kind == "ident":
            return self.parse_builtin_type()
        raise ParseError("expected type", token)

    def parse_builtin_type(self) -> Type:
        token = self.advance()
        text = token.text
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
        if text == "memref":
            return self.parse_memref_body()
        if text == "tensor":
            shape, element = self.parse_shape_body()
            return TensorType(shape, element)
        if text == "vector":
            shape, element = self.parse_shape_body()
            return VectorType(shape, element)
        raise ParseError(f"unknown type {text!r}", token)

    def parse_shape_body(self) -> Tuple[Tuple[int, ...], Type]:
        """Parse ``<4x?x8xf32>`` after the keyword."""
        self.expect("<")
        dims: List[int] = []
        while True:
            token = self.token
            if token.text == "?":
                self.advance()
                dims.append(DYNAMIC)
                self._expect_shape_separator()
            elif token.kind == "number" and "." not in token.text:
                self.advance()
                dims.append(int(token.text))
                self._expect_shape_separator()
            elif token.kind == "ident" and re.match(r"^\d", token.text):
                # forms like "4x4xf32" lex as one identifier; split it
                element = self._split_shape_ident(token.text, dims)
                if element is not None:
                    self.advance()
                    self.expect(">")
                    return tuple(dims), element
                self.advance()
            else:
                element = self.parse_type()
                self.expect(">")
                return tuple(dims), element

    def _expect_shape_separator(self) -> None:
        if self.token.kind == "ident" and self.token.text.startswith("x"):
            # "x4xf32" remainder lexed as identifier
            rest = self.token.text[1:]
            if rest:
                self.tokens[self.index] = Token(
                    "ident", rest, self.token.pos, self.token.line,
                    self.token.col,
                )
            else:
                self.advance()
        elif self.token.text == "*":
            raise ParseError("unranked shapes unsupported", self.token)

    def _split_shape_ident(self, text: str, dims: List[int]) -> Optional[Type]:
        """Split e.g. ``4x4xf32`` into dims [4, 4] and element type f32."""
        parts = text.split("x")
        for i, part in enumerate(parts):
            if part.isdigit():
                dims.append(int(part))
            elif part == "?":
                dims.append(DYNAMIC)
            else:
                remainder = "x".join(parts[i:])
                return _parse_scalar_type_text(remainder)
        return None

    def parse_memref_body(self) -> MemRefType:
        self.expect("<")
        dims: List[int] = []
        element: Optional[Type] = None
        while element is None:
            token = self.token
            if token.text == "?":
                self.advance()
                dims.append(DYNAMIC)
                self._expect_shape_separator()
            elif token.kind == "number" and "." not in token.text:
                self.advance()
                dims.append(int(token.text))
                self._expect_shape_separator()
            elif token.kind == "ident" and re.match(r"^[\d?]", token.text):
                element = self._split_shape_ident(token.text, dims)
                self.advance()
            else:
                element = self.parse_type()
        layout = None
        memory_space = 0
        if self.accept(","):
            if self.token.text == "strided":
                layout = self.parse_strided_layout()
                if self.accept(","):
                    memory_space = int(self.expect_kind("number").text)
            else:
                memory_space = int(self.expect_kind("number").text)
        self.expect(">")
        return MemRefType(tuple(dims), element, layout, memory_space)

    def parse_strided_layout(self) -> MemRefLayout:
        self.expect("strided")
        self.expect("<")
        self.expect("[")
        strides: List[int] = []
        while not self.accept("]"):
            if self.accept("?"):
                strides.append(DYNAMIC)
            else:
                strides.append(int(self.expect_kind("number").text))
            self.accept(",")
        offset = 0
        if self.accept(","):
            self.expect("offset")
            self.expect(":")
            if self.accept("?"):
                offset = DYNAMIC
            else:
                offset = int(self.expect_kind("number").text)
        self.expect(">")
        return MemRefLayout(offset, tuple(strides))

    def parse_function_type(self) -> FunctionType:
        self.expect("(")
        inputs: List[Type] = []
        while not self.accept(")"):
            inputs.append(self.parse_type())
            self.accept(",")
        self.expect("->")
        if self.accept("("):
            results: List[Type] = []
            while not self.accept(")"):
                results.append(self.parse_type())
                self.accept(",")
            return FunctionType(tuple(inputs), tuple(results))
        return FunctionType(tuple(inputs), (self.parse_type(),))

    def parse_dialect_type(self) -> Type:
        token = self.expect_kind("typetok")
        body = token.text[1:]  # strip '!'
        dialect = body.split(".", 1)[0]
        parser_fn = TYPE_PARSERS.get(dialect)
        if parser_fn is not None:
            return parser_fn(self, token.text)
        if body == "llvm.ptr":
            return LLVMPointerType()
        if body == "llvm.struct":
            self.expect("<")
            self.expect("(")
            members: List[Type] = []
            while not self.accept(")"):
                members.append(self.parse_type())
                self.accept(",")
            self.expect(">")
            return LLVMStructType(tuple(members))
        if "." in body:
            dialect_name, kind = body.split(".", 1)
            return OpaqueType(dialect_name, kind)
        raise ParseError(f"unknown dialect type {token.text!r}", token)

    # -- attributes -------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        token = self.token
        if token.kind == "string":
            self.advance()
            return StringAttr(_unescape(token.text[1:-1]))
        if token.kind == "number":
            self.advance()
            if _is_float_literal(token.text):
                value: Attribute = FloatAttr(float(token.text))
                if self.accept(":"):
                    value = FloatAttr(float(token.text), self.parse_type())
                return value
            if self.accept(":"):
                return IntegerAttr(int(token.text), self.parse_type())
            return IntegerAttr(int(token.text))
        if token.kind == "symbol":
            self.advance()
            nested: List[str] = []
            while self.check(":") and self.tokens[self.index + 1].text == ":":
                self.advance()
                self.advance()
                nested.append(self.expect_kind("symbol").text[1:])
            return SymbolRefAttr(token.text[1:], tuple(nested))
        if token.text == "unit":
            self.advance()
            return UnitAttr()
        if token.text == "true":
            self.advance()
            return BoolAttr(True)
        if token.text == "false":
            self.advance()
            return BoolAttr(False)
        if token.text == "[":
            self.advance()
            values: List[Attribute] = []
            while not self.accept("]"):
                values.append(self.parse_attribute())
                self.accept(",")
            return ArrayAttr(tuple(values))
        if token.text == "{":
            return DictAttr(tuple(self.parse_attr_dict().items()))
        if token.text == "dense":
            self.advance()
            self.expect("<")
            self.expect("[")
            literals: List[str] = []
            while not self.accept("]"):
                literals.append(self.expect_kind("number").text)
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
            name_token = self.token
            if name_token.kind not in ("ident", "string"):
                raise ParseError("expected attribute name", name_token)
            self.advance()
            name = (
                _unescape(name_token.text[1:-1])
                if name_token.kind == "string"
                else name_token.text
            )
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
        if self.token.kind != "eof":
            raise ParseError("trailing input after top-level op", self.token)
        return op

    def parse_operation(self) -> Operation:
        location = self._location()
        result_names: List[str] = []
        if self.token.kind == "value":
            result_names.append(self.advance().text)
            while self.accept(","):
                result_names.append(self.expect_kind("value").text)
            self.expect("=")
        name_token = self.expect_kind("string")
        op_name = _unescape(name_token.text[1:-1])

        self.expect("(")
        operand_names: List[str] = []
        while not self.accept(")"):
            operand_names.append(self.expect_kind("value").text)
            self.accept(",")

        successors: List[Block] = []
        if self.accept("["):
            while not self.accept("]"):
                successors.append(self.lookup_block(self.advance().text))
                self.accept(",")

        regions_blocks: List[List[Block]] = []
        if self.check("(") and self.tokens[self.index + 1].text == "{":
            self.advance()  # '('
            while True:
                regions_blocks.append(self.parse_region_blocks())
                if not self.accept(","):
                    break
            self.expect(")")

        attributes: Dict[str, Attribute] = {}
        if self.check("{"):
            attributes = self.parse_attr_dict()

        self.expect(":")
        func_type = self.parse_function_type()
        if len(func_type.inputs) != len(operand_names):
            raise ParseError(
                f"{op_name}: operand count does not match type", name_token
            )
        if len(func_type.results) != len(result_names):
            raise ParseError(
                f"{op_name}: result count does not match type", name_token
            )

        operands = [self.lookup_value(n) for n in operand_names]
        op = Operation.create(
            op_name,
            operands=operands,
            result_types=list(func_type.results),
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
            self.define_value(name, result)
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
            if self.token.kind == "block":
                label = self.advance().text
                block = self.lookup_block(label)
                if self.accept("("):
                    while not self.accept(")"):
                        arg_name = self.expect_kind("value").text
                        self.expect(":")
                        arg_type = self.parse_type()
                        arg = block.add_arg(arg_type)
                        self.define_value(arg_name, arg)
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
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _parse_scalar_type_text(text: str) -> Type:
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
    raise ParseError(f"unknown element type {text!r}")


def parse(text: str, filename: str = "<string>") -> Operation:
    """Parse textual IR; returns the single top-level operation."""
    return Parser(text, filename).parse_module()
