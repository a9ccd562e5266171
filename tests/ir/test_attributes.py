"""Tests for attributes and conversion helpers."""

import pytest

from repro.ir.attributes import (
    ArrayAttr,
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
    attr,
    index_attr,
    unwrap,
)
from repro.ir.types import F32, F64, I32, I64, IndexType


class TestCoercion:
    def test_int(self):
        a = attr(42)
        assert isinstance(a, IntegerAttr)
        assert a.value == 42
        assert a.type == I64

    def test_bool_before_int(self):
        assert isinstance(attr(True), BoolAttr)
        assert isinstance(attr(False), BoolAttr)

    def test_float(self):
        a = attr(2.5)
        assert isinstance(a, FloatAttr)
        assert a.value == 2.5

    def test_str(self):
        assert attr("hello") == StringAttr("hello")

    def test_type(self):
        assert attr(I32) == TypeAttr(I32)

    def test_list(self):
        a = attr([1, 2, 3])
        assert isinstance(a, ArrayAttr)
        assert len(a) == 3
        assert a[0] == IntegerAttr(1)

    def test_dict(self):
        a = attr({"x": 1, "y": "z"})
        assert isinstance(a, DictAttr)
        assert a.as_dict()["x"] == IntegerAttr(1)

    def test_attribute_passthrough(self):
        original = StringAttr("s")
        assert attr(original) is original

    def test_nested_list(self):
        a = attr([[1], [2, 3]])
        assert isinstance(a[0], ArrayAttr)

    def test_unconvertible(self):
        with pytest.raises(TypeError):
            attr(object())


class TestUnwrap:
    def test_scalars(self):
        assert unwrap(IntegerAttr(7)) == 7
        assert unwrap(FloatAttr(1.5, F64)) == 1.5
        assert unwrap(StringAttr("x")) == "x"
        assert unwrap(BoolAttr(True)) is True

    def test_array(self):
        assert unwrap(attr([1, 2])) == [1, 2]

    def test_dense(self):
        assert unwrap(DenseIntAttr((4, 5))) == [4, 5]

    def test_symbol_ref(self):
        assert unwrap(SymbolRefAttr("foo")) == "foo"

    def test_unit(self):
        assert unwrap(UnitAttr()) is True

    def test_dict(self):
        assert unwrap(attr({"a": 1})) == {"a": 1}


class TestConstructors:
    def test_int_attr_width(self):
        assert IntegerAttr(3, I32).type == I32

    def test_index_attr(self):
        assert index_attr(5).type == IndexType()

    def test_dense_iteration(self):
        dense = DenseIntAttr((1, 2, 3))
        assert list(dense) == [1, 2, 3]
        assert len(dense) == 3


class TestPrinting:
    def test_integer(self):
        assert str(IntegerAttr(3, I32)) == "3 : i32"

    def test_symbol_nested(self):
        assert str(SymbolRefAttr("a", ("b",))) == "@a::@b"

    def test_array(self):
        assert str(attr([1])) == "[1 : i64]"

    def test_unit(self):
        assert str(UnitAttr()) == "unit"

    def test_float_keeps_its_point(self):
        # "1 : f32" would read back as an integer attribute.
        assert str(FloatAttr(1, F32)) == "1.0 : f32"

    def test_string_escapes(self):
        assert str(StringAttr('a"b\\c')) == r'"a\"b\\c"'

    def test_dense_float_defaults_to_f64(self):
        dense = DenseFloatAttr((1.0, 2.0))
        assert dense.type == F64
        assert str(dense) == "dense<[1.0, 2.0]> : f64"


def _reparsed(attribute):
    """``attribute`` printed on an op and parsed back."""
    from repro.ir import Operation, parse, print_op

    op = Operation.create("test.op", attributes={"a": attribute})
    return parse(print_op(op)).attributes["a"]


@pytest.mark.parametrize("attribute", [
    DenseFloatAttr((1.0, 2.0)),
    FloatAttr(1, F32),
    StringAttr('a"b\\c'),
    ArrayAttr((FloatAttr(2, F64), StringAttr('"'))),
    DictAttr((("k", FloatAttr(3, F32)), ("s", StringAttr("\\"))),),
], ids=lambda a: type(a).__name__)
def test_print_parse_gives_an_equal_attribute(attribute):
    assert _reparsed(attribute) == attribute
