"""The lexer's language, pinned three ways: a table of tricky lexemes,
a reference lexer (the per-lexeme ``match`` loop the one-pass lexer
replaced) run over real prints, and a host-independent cost ceiling."""

import random
import re
import sys

import pytest

import repro.core  # noqa: F401 — registers the !transform type parser
from repro.ir import parse, print_op
from repro.ir.parser import Parser, token_kind

_REFERENCE_RE = re.compile(
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


def reference_lex(text):
    """(kind, lexeme) pairs, one ``match`` per lexeme."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_RE.match(text, pos)
        assert match is not None, text[pos:pos + 20]
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group()))
        pos = match.end()
    return tokens


def lex(text):
    return Parser(text).tokens[:-1]


def is_shaped_lexeme(token):
    return token_kind(token) == "ident" and "<" in token


LEXEMES = [
    ("tensor<4x?x8xf32>", ["tensor<4x?x8xf32>"]),
    ("4x?x8xf32", ["4", "x", "?", "x8xf32"]),
    ("tensor<f32> vector<8xindex>", ["tensor<f32>", "vector<8xindex>"]),
    ("tensor<4xvector<4xf32>>", ["tensor<4x", "vector<4xf32>", ">"]),
    ("memref<?x4xf32, strided<[?, 1], offset: ?>, 1>",
     ["memref<?x4x", "f32", ",", "strided", "<", "[", "?", ",", "1", "]",
      ",", "offset", ":", "?", ">", ",", "1", ">"]),
    ("memref<2x!llvm.ptr>", ["memref<2x", "!llvm.ptr", ">"]),
    ("tensor.extract tensor", ["tensor.extract", "tensor"]),
    ("() -> -1", ["(", ")", "->", "-1"]),
    ("-inf nan inf 1e-30 -2.5E+3 info", ["-inf", "nan", "inf", "1e-30",
                                          "-2.5E+3", "info"]),
    ("%arg#1 %0 ^bb0 @a::@b", ["%arg#1", "%0", "^bb0", "@a", ":", ":", "@b"]),
    ('!transform.op<"scf.for">', ["!transform.op", "<", '"scf.for"', ">"]),
    ('"a\\"b" "c\\\\"', ['"a\\"b"', '"c\\\\"']),
    ("{x4 = 4, x}", ["{", "x4", "=", "4", ",", "x", "}"]),
    ("a // comment, not (lexed)", ["a"]),
    ("// only a comment", []),
    ("a // c \"\n b //", ["a", "b"]),
]

KINDS = {
    '"s"': "string", "->": "arrow", "%0": "value", "^bb0": "block",
    "@f": "symbol", "!transform.any_op": "typetok", "-1": "number",
    "4": "number", "1e-30": "number", "inf": "number", "nan": "number",
    "-inf": "number", "info": "ident", "x4": "ident", "_x": "ident",
    "tensor<4xf32>": "ident", "memref<?x": "ident", "<": "punct",
    "?": "punct", "": "eof",
}


class TestLexemes:
    @pytest.mark.parametrize("text, expected", LEXEMES)
    def test_table(self, text, expected):
        assert lex(text) == expected

    @pytest.mark.parametrize("token, kind", KINDS.items())
    def test_kind_follows_from_the_lexeme(self, token, kind):
        assert token_kind(token) == kind

    @pytest.mark.parametrize("spelling", [
        "tensor<4x?x8xf32>", "tensor<f32>", "vector<8xindex>",
        "tensor<4xvector<4xf32>>", "memref<2x!llvm.ptr>", "memref<2xf32, 3>",
        "memref<?x4xf32, strided<[?, 1], offset: ?>, 1>", "memref<4x4xui8>",
    ])
    def test_shaped_types_round_trip(self, spelling):
        op = parse(f'%0 = "t.x"() : () -> {spelling}')
        assert str(op.results[0].type) == spelling

    def test_one_type_object_per_spelling_per_parse(self):
        op = parse('%0, %1 = "t.x"() : () -> (tensor<4xf32>, tensor<4xf32>)')
        again = parse('%0 = "t.x"() : () -> tensor<4xf32>')
        first, second = (result.type for result in op.results)
        assert first is second
        # ...and across parses: types are uniqued process-wide.
        assert again.results[0].type is first


def _corpus():
    from repro.mlmodels import build_model
    from repro.testing.fuzz import PayloadFuzzer, ScheduleFuzzer

    texts = [text for text, _ in LEXEMES]
    texts.append(print_op(build_model("squeezenet")))
    for seed in range(20):
        rng = random.Random(seed)
        texts.append(print_op(PayloadFuzzer(rng).module()))
        texts.append(print_op(ScheduleFuzzer(rng).sequence()))
    return texts


def test_same_language_as_the_reference_lexer():
    # Both lexers skip the same characters, and outside shaped types
    # the token stream is the reference's, kinds included. A shaped
    # lexeme fuses reference tokens; one that stops at its dimension
    # list (``tensor<4x`` before ``vector<4xf32>>``) also moves the
    # ``x`` the reference glued to the next identifier.
    for text in _corpus():
        reference = reference_lex(text)
        tokens = lex(text)
        assert "".join(tokens) == "".join(lexeme for _, lexeme in reference)
        reference_at = {}
        offset = 0
        for kind, lexeme in reference:
            reference_at[offset] = (kind, lexeme)
            offset += len(lexeme)
        offset = 0
        after_dimension_list = False
        for token in tokens:
            shaped = is_shaped_lexeme(token)
            if not shaped and not after_dimension_list:
                assert reference_at[offset] == (token_kind(token), token)
            after_dimension_list = shaped and not token.endswith(">")
            offset += len(token)


#: Python-level + C-level calls of ``parse`` over the squeezenet print,
#: measured 10 067 when this guard was written (53 552 with the
#: per-lexeme lexer); the ceiling leaves ~10 % for interpreter versions.
PARSE_CALLS_CEILING = 11_100


def test_parse_call_count_stays_under_its_ceiling():
    """A front-end regression fails here on any host: calls are a work
    count no timer is needed for (the technique behind perfbench's
    ``bench.py_calls_per_job``)."""
    from repro.mlmodels import build_model

    text = print_op(build_model("squeezenet"))
    parse(text)  # imports and regex compilation are not parse work
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        parse(text)
    finally:
        sys.setprofile(previous)
    assert calls[0] <= PARSE_CALLS_CEILING, calls[0]
