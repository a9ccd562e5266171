"""Tests for affine expressions and maps, incl. hypothesis properties."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.affine import (
    AffineBinary,
    AffineConstant,
    AffineDim,
    AffineMap,
    AffineSymbol,
    constant,
    dim,
    symbol,
)


class TestSimplification:
    def test_constant_folding_add(self):
        assert constant(2) + constant(3) == constant(5)

    def test_constant_folding_mul(self):
        assert constant(4) * constant(5) == constant(20)

    def test_add_zero(self):
        d0 = dim(0)
        assert d0 + 0 is d0
        assert 0 + d0 is d0

    def test_mul_one(self):
        d0 = dim(0)
        assert d0 * 1 is d0
        assert 1 * d0 is d0

    def test_mul_zero(self):
        assert dim(0) * 0 == constant(0)

    def test_sub_and_neg(self):
        expr = dim(0) - 3
        assert expr.evaluate([10]) == 7
        assert (-dim(0)).evaluate([4]) == -4

    def test_floordiv_by_one(self):
        d0 = dim(0)
        assert d0.floordiv(1) is d0

    def test_constant_floordiv_and_mod(self):
        assert constant(7).floordiv(2) == constant(3)
        assert constant(7) % constant(2) == constant(1)
        assert constant(7).ceildiv(2) == constant(4)


class TestEvaluation:
    def test_dims_and_symbols(self):
        expr = dim(0) * 8 + symbol(0)
        assert expr.evaluate([3], [4]) == 28

    def test_nested(self):
        expr = (dim(0) + dim(1)).floordiv(2)
        assert expr.evaluate([5, 3]) == 4

    def test_mod(self):
        expr = dim(0) % 8
        assert expr.evaluate([19]) == 3


class TestReplace:
    def test_dim_replacement(self):
        expr = dim(0) * 2 + dim(1)
        replaced = expr.replace([constant(3), dim(0)])
        assert replaced.evaluate([5]) == 11

    def test_symbol_replacement(self):
        expr = symbol(0) + 1
        assert expr.replace([], [constant(9)]) == constant(10)


class TestAffineMap:
    def test_identity(self):
        m = AffineMap(3, 0, (dim(0), dim(1), dim(2)))
        assert m.evaluate([1, 2, 3]) == [1, 2, 3]

    def test_arity_check(self):
        m = AffineMap(2, 0, (dim(0), dim(1)))
        with pytest.raises(ValueError):
            m.evaluate([1])

    def test_str(self):
        m = AffineMap(2, 1, (dim(0) * 8 + symbol(0),))
        assert str(m) == "(d0, d1)[s0] -> (((d0 * 8) + s0))"


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

ints = st.integers(min_value=-100, max_value=100)
pos_ints = st.integers(min_value=1, max_value=50)


@st.composite
def affine_exprs(draw, depth=0):
    """Random affine expressions over one dim and one symbol."""
    if depth > 3:
        choice = draw(st.integers(0, 2))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return constant(draw(ints))
    if choice == 1:
        return dim(0)
    if choice == 2:
        return symbol(0)
    lhs = draw(affine_exprs(depth=depth + 1))
    rhs = draw(affine_exprs(depth=depth + 1))
    if choice == 3:
        return lhs + rhs
    if choice == 4:
        return lhs * draw(ints)
    return lhs - rhs


@given(affine_exprs(), ints, ints)
def test_simplification_preserves_value(expr, d, s):
    """Operator-level simplifications never change evaluation results."""
    baseline = AffineBinary("add", expr, AffineConstant(0))
    assert expr.evaluate([d], [s]) == baseline.evaluate([d], [s])


@given(affine_exprs(), affine_exprs(), ints, ints)
def test_add_commutes_on_evaluation(a, b, d, s):
    assert (a + b).evaluate([d], [s]) == (b + a).evaluate([d], [s])


@given(affine_exprs(), ints, ints, pos_ints)
def test_floordiv_matches_python(expr, d, s, divisor):
    value = expr.evaluate([d], [s])
    assert expr.floordiv(divisor).evaluate([d], [s]) == value // divisor

