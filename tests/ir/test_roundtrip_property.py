"""Property-based printer/parser round-trip on randomized IR."""

from hypothesis import given, settings, strategies as st

from repro.ir import (
    Block,
    Builder,
    F32,
    F64,
    I1,
    I32,
    I64,
    INDEX,
    Operation,
    parse,
    print_op,
)
from repro.ir.types import memref, tensor, vector

SCALARS = [I1, I32, I64, F32, F64, INDEX]
SHAPED = [memref(4, 4), tensor(2, 8), vector(8), memref(16)]

types = st.sampled_from(SCALARS + SHAPED)
attr_values = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
        max_size=12,
    ),
    st.lists(st.integers(-5, 5), max_size=4),
)
attr_names = st.sampled_from(
    ["value", "flag", "count", "label", "sizes", "mode"]
)
op_names = st.sampled_from(
    ["test.alpha", "test.beta", "test.gamma", "custom.thing"]
)


@st.composite
def random_flat_module(draw):
    """A module holding a random DAG of unregistered ops."""
    module = Operation.create("builtin.module", regions=1)
    block = module.regions[0].add_block()
    builder = Builder.at_end(block)
    available = []
    for _ in range(draw(st.integers(1, 10))):
        n_operands = draw(st.integers(0, min(2, len(available))))
        operands = [
            draw(st.sampled_from(available)) for _ in range(n_operands)
        ] if available else []
        n_results = draw(st.integers(0, 2))
        result_types = [draw(types) for _ in range(n_results)]
        attributes = {
            draw(attr_names): draw(attr_values)
            for _ in range(draw(st.integers(0, 2)))
        }
        op = builder.create(
            draw(op_names),
            operands=operands,
            result_types=result_types,
            attributes=attributes or None,
        )
        available.extend(op.results)
    return module


@settings(max_examples=60, deadline=None)
@given(random_flat_module())
def test_flat_roundtrip(module):
    text = print_op(module)
    assert print_op(parse(text)) == text


@st.composite
def random_nested_module(draw, depth=0):
    module = Operation.create("builtin.module", regions=1)
    block = module.regions[0].add_block()
    _fill_block(draw, block, depth=0)
    return module


def _fill_block(draw, block, depth):
    builder = Builder.at_end(block)
    available = list(block.args)
    for _ in range(draw(st.integers(1, 5))):
        with_region = depth < 2 and draw(st.booleans())
        operands = (
            [draw(st.sampled_from(available))]
            if available and draw(st.booleans())
            else []
        )
        op = builder.create(
            draw(op_names),
            operands=operands,
            result_types=[draw(types)] if draw(st.booleans()) else [],
            regions=1 if with_region else 0,
        )
        if with_region:
            n_args = draw(st.integers(0, 2))
            inner = op.regions[0].add_block(
                Block([draw(types) for _ in range(n_args)])
            )
            _fill_block(draw, inner, depth + 1)
        available.extend(op.results)


@settings(max_examples=40, deadline=None)
@given(random_nested_module())
def test_nested_roundtrip(module):
    text = print_op(module)
    assert print_op(parse(text)) == text


@settings(max_examples=25, deadline=None)
@given(random_nested_module())
def test_clone_print_equivalence(module):
    """Cloning is a semantic no-op: identical textual form."""
    assert print_op(module.clone()) == print_op(module)


@settings(max_examples=25, deadline=None)
@given(random_flat_module())
def test_reparse_is_idempotent(module):
    once = print_op(parse(print_op(module)))
    twice = print_op(parse(once))
    assert once == twice


# ---------------------------------------------------------------------------
# The compile service ships IR between processes as text; these cases
# pin the transport contract on realistic payloads and on the float
# attribute corners the textual form has historically mangled.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fuzz_payload_roundtrip(seed):
    """Fuzzer-generated payload modules survive print -> parse -> print
    byte-identically (the service's process-boundary invariant)."""
    import random

    from repro.testing.fuzz import PayloadFuzzer

    module = PayloadFuzzer(random.Random(seed)).module()
    text = print_op(module)
    reparsed = parse(text)
    reparsed.verify()
    assert print_op(reparsed) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transformed_fuzz_payload_roundtrip(seed):
    """Round-trip stability also holds after transformation — the
    direction results travel back from workers."""
    import random

    from repro.passes.manager import parse_pipeline
    from repro.testing.fuzz import PayloadFuzzer

    module = PayloadFuzzer(random.Random(seed)).module()
    parse_pipeline("canonicalize").run(module)
    text = print_op(module)
    assert print_op(parse(text)) == text


def _attr_module(**attributes):
    module = Operation.create("builtin.module", regions=1)
    block = module.regions[0].add_block()
    Builder.at_end(block).create("test.attrs", attributes=attributes)
    return module


special_floats = st.sampled_from([
    float("inf"), float("-inf"), 1e-30, 1e30, -2.5e-7, 0.0, -0.0, 123.456,
])


@settings(max_examples=40, deadline=None)
@given(special_floats)
def test_special_float_attr_roundtrip(value):
    text = print_op(_attr_module(value=value))
    assert print_op(parse(text)) == text


def test_nan_attr_roundtrip():
    # NaN compares unequal to itself, so byte-compare the prints.
    text = print_op(_attr_module(value=float("nan")))
    assert print_op(parse(text)) == text


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False,
                  width=32).map(float),
        st.sampled_from([float("inf"), float("-inf"), 1e-30]),
    ),
    min_size=1, max_size=6,
))
def test_dense_float_attr_roundtrip(values):
    from repro.ir.attributes import DenseFloatAttr
    from repro.ir.types import vector

    attr = DenseFloatAttr(values, vector(len(values)))
    text = print_op(_attr_module(value=attr))
    assert print_op(parse(text)) == text


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=6))
def test_dense_int_attr_roundtrip(values):
    from repro.ir.attributes import DenseIntAttr
    from repro.ir.types import vector

    attr = DenseIntAttr(values, vector(len(values), element_type=I64))
    text = print_op(_attr_module(value=attr))
    assert print_op(parse(text)) == text


def test_function_declaration_roundtrip():
    """A bodiless ``func.func`` prints its region as ``({})`` and must
    come back block-less — a declaration that verifies and digests as
    the original — not with the empty entry block other ops get."""
    import repro.dialects  # noqa: F401 — registers func.func
    from repro.execution.workloads import build_uneven_loop_module
    from repro.ir import op_digest

    module = build_uneven_loop_module()
    text = print_op(module)
    reparsed = parse(text)
    use = reparsed.regions[0].entry_block.ops[0]
    assert use.is_declaration
    reparsed.verify()
    assert print_op(reparsed) == text
    assert op_digest(reparsed) == op_digest(module)
    # Any other op keeps reading ``({})`` as one empty block.
    empty = parse(print_op(Operation.create("builtin.module", regions=1)))
    assert len(empty.regions[0].blocks) == 1
