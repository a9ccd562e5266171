"""The lexer's language, pinned three ways: a table of tricky lexemes,
a reference lexer (the per-lexeme ``match`` loop the one-pass lexer
replaced) run over real prints, and host-independent cost ceilings.
The locations the parser gives ops are checked against the print's
own lines."""

import random
import re
import sys

import pytest

import repro.core  # noqa: F401 — registers the !transform type parser
from repro.ir import parse, print_op
from repro.ir.parser import Parser, token_kind
from repro.ir.types import Type

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


def is_fused_lexeme(token):
    return token_kind(token) in ("operands", "signature")


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
    # An operand list in the printer's spelling is one lexeme...
    ("(%0, %arg#1)", ["(%0, %arg#1)"]),
    # ...and any other spelling, or a list of block arguments, is not.
    ("(%0,%1)", ["(", "%0", ",", "%1", ")"]),
    ("()", ["(", ")"]),
    ("(%0: i32)", ["(", "%0", ":", "i32", ")"]),
    # A signature whose every type is one lexeme is one lexeme.
    ("(tensor<4x?xf32>, i32) -> tensor<4xf32>",
     ["(tensor<4x?xf32>, i32) -> tensor<4xf32>"]),
    ("() -> ()", ["() -> ()"]),
    ("(index) -> (f16, none)", ["(index) -> (f16, none)"]),
    ("(!transform.any_op) -> !transform.any_op",
     ["(!transform.any_op) -> !transform.any_op"]),
    # A type that needs more lexemes keeps its signature token by token.
    ('(!transform.any_op) -> !transform.op<"x">',
     ["(", "!transform.any_op", ")", "->", "!transform.op", "<", '"x"',
      ">"]),
    ("(!transform.any_op) -> !transform.param <i64>",
     ["(", "!transform.any_op", ")", "->", "!transform.param", "<", "i64",
      ">"]),
    ("(i32) -> !t.x // c\n <i32>",
     ["(", "i32", ")", "->", "!t.x", "<", "i32", ">"]),
    ("(i32) -> !t.x\n%0", ["(i32) -> !t.x", "%0"]),
    ("() -> (tensor<4xvector<4xf32>>)",
     ["(", ")", "->", "(", "tensor<4x", "vector<4xf32>", ">", ")"]),
    ("(memref<4xf32, 1>) -> ()",
     ["(", "memref<4x", "f32", ",", "1", ">", ")", "->", "(", ")"]),
    ("(i32) -> i32x", ["(", "i32", ")", "->", "i32x"]),
    ("(i32)->i32", ["(", "i32", ")", "->", "i32"]),
]

KINDS = {
    '"s"': "string", "->": "arrow", "%0": "value", "^bb0": "block",
    "@f": "symbol", "!transform.any_op": "typetok", "-1": "number",
    "4": "number", "1e-30": "number", "inf": "number", "nan": "number",
    "-inf": "number", "info": "ident", "x4": "ident", "_x": "ident",
    "tensor<4xf32>": "ident", "memref<?x": "ident", "<": "punct",
    "?": "punct", "(": "punct", "": "eof", "(%0, %1)": "operands",
    "() -> ()": "signature", "(i32) -> i32": "signature",
}


#: One spelling per ``Type`` subclass (builtin, ``!llvm.*``,
#: ``!transform.*`` and opaque), and the shaped types in their tricky
#: forms.
TYPE_SPELLINGS = [
    "tensor<4x?x8xf32>", "tensor<f32>", "vector<8xindex>",
    "tensor<4xvector<4xf32>>", "memref<2x!llvm.ptr>", "memref<2xf32, 3>",
    "memref<?x4xf32, strided<[?, 1], offset: ?>, 1>", "memref<4x4xui8>",
    "i32", "index", "f32", "none", "(i32, f32) -> index",
    "!llvm.ptr", "!llvm.struct<(i32, !llvm.ptr)>",
    "!transform.any_op", "!transform.any_value",
    '!transform.op<"scf.for">', "!transform.param<i64>", "!foo.bar",
]


def _type_attribute(spelling):
    return parse(f'"t.x"() {{t = {spelling}}} : () -> ()').attr("t").value


class TestLexemes:
    @pytest.mark.parametrize("text, expected", LEXEMES)
    def test_table(self, text, expected):
        assert lex(text) == expected

    @pytest.mark.parametrize("token, kind", KINDS.items())
    def test_kind_follows_from_the_lexeme(self, token, kind):
        assert token_kind(token) == kind

    @pytest.mark.parametrize("spelling", TYPE_SPELLINGS)
    def test_shaped_types_round_trip(self, spelling):
        """Every spelling reads back as itself as a type attribute and,
        but a function type (which a signature reads as its own), as a
        result type."""
        assert str(_type_attribute(spelling)) == spelling
        if not spelling.startswith("("):
            op = parse(f'%0 = "t.x"() : () -> {spelling}')
            assert str(op.results[0].type) == spelling

    def test_every_type_class_has_a_spelling(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        spelled = {type(_type_attribute(spelling))
                   for spelling in TYPE_SPELLINGS}
        missing = {cls for cls in subclasses(Type)
                   if cls.__module__.startswith("repro.")
                   and "_spelling" in vars(cls)} - spelled
        assert not missing, f"no round-trip spelling for {missing}"

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


def _pieces(token):
    """``token`` as reference lexemes if it is a fused one, else itself."""
    if is_fused_lexeme(token):
        return [lexeme for _, lexeme in reference_lex(token)]
    return [token]


def test_same_language_as_the_reference_lexer():
    # Both lexers skip the same characters, and outside shaped types
    # the token stream is the reference's, kinds included. An operand
    # list or a signature lexeme is a run of reference tokens, whole,
    # which the reference lexer splits it back into, kinds included.
    # A shaped lexeme fuses reference tokens; one that stops at its
    # dimension list (``tensor<4x`` before ``vector<4xf32>>``) also
    # moves the ``x`` the reference glued to the next identifier.
    fused = 0
    for text in _corpus():
        reference = reference_lex(text)
        tokens = lex(text)
        assert "".join(piece for token in tokens for piece in _pieces(token)) \
            == "".join(lexeme for _, lexeme in reference)
        reference_at = {}
        offset = 0
        for kind, lexeme in reference:
            reference_at[offset] = (kind, lexeme)
            offset += len(lexeme)
        offset = 0
        after_dimension_list = False
        for token in tokens:
            if is_fused_lexeme(token):
                fused += 1
                for kind, lexeme in reference_lex(token):
                    assert reference_at[offset] == (kind, lexeme)
                    offset += len(lexeme)
                continue
            shaped = is_shaped_lexeme(token)
            if not shaped and not after_dimension_list:
                assert reference_at[offset] == (token_kind(token), token)
            after_dimension_list = shaped and not token.endswith(">")
            offset += len(token)
    assert fused > 1000


def _op_lines(text):
    """(line, column) of every op of a print, worked out from its text
    alone: an op starts its own line, at its first non-blank column;
    the other lines hold a block label (``^``) or close a region."""
    return [(number, len(line) - len(line.lstrip()) + 1)
            for number, line in enumerate(text.split("\n"), 1)
            if line.lstrip()[:1] in ('"', "%")]


def test_every_op_keeps_its_location():
    from repro.mlmodels import MODEL_SPECS, build_model

    texts = [print_op(build_model(model)) for model in MODEL_SPECS]
    texts += _corpus()[len(LEXEMES) + 1:]
    assert len(texts) == 45
    for text in texts:
        ops = list(parse(text, "f.mlir").walk())
        assert [(op.location.line, op.location.col) for op in ops] \
            == _op_lines(text)
        assert {op.location.filename for op in ops} == {"f.mlir"}


def _calls(fn):
    """Python-level + C-level calls that ``fn()`` makes."""
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls[0]


#: Python-level + C-level calls of ``parse`` over the squeezenet print,
#: measured 5 742 with one lexeme per operand list and per signature
#: (9 417 with one lexeme per type, 53 552 with the per-lexeme lexer);
#: the ceiling leaves ~10 % for interpreter versions.
PARSE_CALLS_CEILING = 6_300


def test_parse_call_count_stays_under_its_ceiling():
    """A front-end regression fails here on any host: calls are a work
    count no timer is needed for (the technique behind perfbench's
    ``bench.py_calls_per_job``)."""
    from repro.mlmodels import build_model

    text = print_op(build_model("squeezenet"))
    parse(text)  # imports and regex compilation are not parse work
    calls = _calls(lambda: parse(text))
    assert calls <= PARSE_CALLS_CEILING, calls


def test_a_parse_makes_at_most_twice_the_calls_of_a_clone():
    """Most of a parse is building ops, not reading text: whisper's
    parse made 3.07x the calls of a ``clone`` of its result with one
    lexeme per type, and 1.66x with the fused lexemes."""
    from repro.mlmodels import build_model

    text = print_op(build_model("whisper_decoder"))
    module = parse(text)
    parse_calls = _calls(lambda: parse(text))
    clone_calls = _calls(module.clone)
    assert parse_calls <= 2 * clone_calls, (parse_calls, clone_calls)
