"""Round-trip tests for the textual printer and parser."""

import pytest

from repro.ir import (
    Block,
    Builder,
    F32,
    FunctionType,
    I32,
    INDEX,
    Operation,
    ParseError,
    index_attr,
    parse,
    print_op,
)
from repro.ir.types import memref


def roundtrip(op: Operation) -> None:
    text = print_op(op)
    reparsed = parse(text)
    assert print_op(reparsed) == text


class TestPrinting:
    def test_simple_op(self):
        op = Operation.create(
            "arith.constant", result_types=[I32],
            attributes={"value": 1},
        )
        assert print_op(op) == \
            '%0 = "arith.constant"() {value = 1 : i64} : () -> i32'

    def test_operands_and_results(self):
        a = Operation.create("test.a", result_types=[I32])
        op = Operation.create(
            "arith.addi", operands=[a.result, a.result],
            result_types=[I32],
        )
        assert '"arith.addi"(%1, %1)' in print_op(op)

    def test_multiple_results(self):
        op = Operation.create("test.multi", result_types=[I32, F32])
        text = print_op(op)
        assert text.startswith("%0, %1 = ")
        assert text.endswith("() -> (i32, f32)")

    def test_region_printing(self):
        op = Operation.create("test.region", regions=1)
        block = op.regions[0].add_block(Block([INDEX]))
        block.append(Operation.create("test.inner"))
        text = print_op(op)
        assert "^bb0(%0: index):" in text
        assert '"test.inner"' in text


class TestRoundTrips:
    def test_flat_ops(self):
        holder = Operation.create("test.holder", regions=1)
        block = holder.regions[0].add_block()
        builder = Builder.at_end(block)
        c = builder.create("arith.constant", result_types=[INDEX],
                           attributes={"value": index_attr(3)})
        builder.create("arith.addi", operands=[c.result, c.result],
                       result_types=[INDEX])
        roundtrip(holder)

    def test_nested_regions(self, matmul_module):
        roundtrip(matmul_module)

    def test_attributes_roundtrip(self):
        op = Operation.create(
            "test.attrs",
            attributes={
                "i": 3,
                "s": "hello",
                "b": True,
                "arr": [1, 2],
                "t": I32,
                "f": 2.5,
            },
        )
        roundtrip(op)

    def test_memref_types_roundtrip(self):
        op = Operation.create(
            "test.mem",
            result_types=[memref(4, 8), memref(2, 2, element_type=F32)],
        )
        roundtrip(op)

    def test_function_type_attr_roundtrip(self):
        op = Operation.create(
            "func.func",
            regions=1,
            attributes={
                "sym_name": "f",
                "function_type": FunctionType((I32,), ()),
            },
        )
        op.regions[0].add_block(Block([I32]))
        roundtrip(op)

    def test_successors_roundtrip(self):
        func = Operation.create("test.holder", regions=1)
        entry = func.regions[0].add_block()
        target = func.regions[0].add_block()
        builder = Builder.at_end(entry)
        builder.create("cf.br", successors=[target])
        target.append(Operation.create("test.end"))
        roundtrip(func)

    def test_case_study_payload_roundtrip(self):
        from repro.execution.workloads import build_uneven_loop_module

        roundtrip(build_uneven_loop_module())

    def test_transform_script_roundtrip(self):
        from repro.core import dialect as transform

        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        roundtrip(script)


class TestParseErrors:
    def test_undefined_value(self):
        with pytest.raises(ParseError, match="undefined value"):
            parse('"test.op"(%undefined) : (i32) -> ()')

    def test_operand_count_mismatch(self):
        with pytest.raises(ParseError, match="operand count"):
            parse('"test.op"() : (i32) -> ()')

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse('"test.a"() : () -> ()\n"test.b"() : () -> ()')

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            parse('"test.op"() : () -> floof')

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse("@@@@")

    def test_ssa_redefinition_in_one_region(self):
        text = ('"m"() ({\n'
                '  %0 = "foo.bar"() : () -> i32\n'
                '  %0 = "foo.bar"() : () -> i32\n'
                '}) : () -> ()')
        with pytest.raises(
                ParseError,
                match=r"redefinition of SSA value %0 at line 3:3 near '%0'"):
            parse(text)

    def test_block_argument_redefinition(self):
        with pytest.raises(ParseError, match="redefinition of SSA value %a"):
            parse('"m"() ({\n^bb0(%a: i32, %a: i32):\n}) : () -> ()')
        with pytest.raises(ParseError, match="redefinition of SSA value %a"):
            parse('"m"() ({\n^bb0(%a: i32):\n'
                  '  %a = "foo.bar"() : () -> i32\n}) : () -> ()')

    def test_a_nested_region_may_reuse_an_outer_name(self):
        # Scopes are per region: this is shadowing, not redefinition.
        parse('"m"() ({\n  %0 = "a"() : () -> i32\n'
              '  "r"() ({\n    %0 = "b"() : () -> i32\n  }) : () -> ()\n'
              '}) : () -> ()')

    @pytest.mark.parametrize("text, message", [
        ('"m"() ({\n  "test.op"(%x) : (i32) -> ()\n}) : () -> ()',
         "use of undefined value %x at line 2:13 near '%x'"),
        ('"a"() : () -> ()\n   ; x',
         "unexpected character ';' at line 2:4 near ';'"),
        ('"a"() : () -> () // c\n ;',
         "unexpected character ';' at line 2:2 near ';'"),
        ('"a"() : () -> ()\n"b',
         "unexpected character '\"' at line 2:1 near '\"'"),
        ('"a"() : () ->', "expected type at line 1:14 near ''"),
        ('"a"()[', "expected block at line 1:7 near ''"),
        ('"a"() : () -> tensor<*xf32>',
         "unranked shapes unsupported at line 1:22 near '*'"),
    ])
    def test_every_error_carries_line_col_and_lexeme(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse(text)
        assert str(raised.value) == message

    #: Errors about a name or a count of an op whose operand list and
    #: signature are one lexeme each, as the printer spells them.
    FUSED = [
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  "b"(%0, %7) : (i32, i32) -> ()\n}) : () -> ()',
         "use of undefined value %7 at line 3:11 near '%7'"),
        # The name is found in the operand list, not in a later op.
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  "b"(%0, %7) : (i32, i32) -> ()\n'
         '  %7 = "a"() : () -> i32\n}) : () -> ()',
         "use of undefined value %7 at line 3:11 near '%7'"),
        # ...and as a whole name, not as the prefix of another.
        ('"m"() ({\n  %10 = "a"() : () -> i32\n'
         '  "b"(%10, %1) : (i32, i32) -> ()\n}) : () -> ()',
         "use of undefined value %1 at line 3:12 near '%1'"),
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  %0 = "b"(%0, %0) : (i32, i32) -> i32\n}) : () -> ()',
         "redefinition of SSA value %0 at line 3:3 near '%0'"),
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  "b"(%0, %0) : (i32) -> ()\n}) : () -> ()',
         "b: operand count does not match type at line 3:3 near '\"b\"'"),
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  %7 = "b"(%0, %0) : (i32, i32) -> ()\n}) : () -> ()',
         "b: result count does not match type at line 3:8 near '\"b\"'"),
        # A type in a signature lexeme fails at its own token, also
        # when its parser reads on for a ``<`` that is not there.
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  "b"(%0, %0) : (i32, !foo) -> ()\n}) : () -> ()',
         "unknown dialect type '!foo' at line 3:23 near '!foo'"),
        ('"m"() ({\n  %0 = "a"() : () -> i32\n'
         '  "b"(%0, %0) : (i32, !llvm.struct) -> ()\n}) : () -> ()',
         "expected '<' at line 3:35 near ')'"),
    ]

    @pytest.mark.parametrize("text, message", FUSED)
    def test_an_error_inside_a_fused_lexeme_keeps_its_position(
            self, text, message):
        from repro.ir.parser import Parser, token_kind

        assert {"operands", "signature"} <= {
            token_kind(token) for token in Parser(text).tokens}
        with pytest.raises(ParseError) as raised:
            parse(text)
        assert str(raised.value) == message
        # Spelled token by token at the same columns, the same op fails
        # the same way.
        unfused = text.replace(", ", " ,").replace(") -> ", ")  ->")
        assert not {"operands", "signature"} & {
            token_kind(token) for token in Parser(unfused).tokens}
        with pytest.raises(ParseError) as raised:
            parse(unfused)
        assert str(raised.value) == message


class TestParseForms:
    def test_strided_memref(self):
        op = parse(
            '%0 = "t.x"() : () -> memref<4x4xf32, strided<[?, 1], offset: ?>>'
        )
        result_type = op.results[0].type
        assert result_type.layout is not None

    def test_dynamic_shape(self):
        op = parse('%0 = "t.x"() : () -> tensor<?x4xf32>')
        assert op.results[0].type.shape[0] == -1

    def test_transform_types(self):
        op = parse('%0 = "t.x"() : () -> !transform.any_op')
        from repro.core.types import AnyOpType

        assert isinstance(op.results[0].type, AnyOpType)

    def test_transform_op_handle_type(self):
        op = parse('%0 = "t.x"() : () -> !transform.op<\"scf.for\">')
        from repro.core.types import OperationHandleType

        assert op.results[0].type == OperationHandleType("scf.for")

    def test_dense_attr(self):
        op = parse(
            '"t.x"() {d = dense<[1, 2]> : i64} : () -> ()'
        )
        assert list(op.attr("d").values) == [1, 2]

    def test_symbol_ref(self):
        op = parse('"t.x"() {callee = @foo} : () -> ()')
        assert op.attr("callee").name == "foo"
