"""``TransformOp.apply_each``: the one loop over a handle's payload.

Every per-payload-op transform goes through it (MLIR's
``TransformEachOpTrait``), so the destroyed-mid-iteration guard, the
``LoopTransformError`` → silenceable rule and the result mapping are
pinned here once, for every op that uses it.
"""

import inspect

import pytest

from repro.core import dialect as transform
from repro.core.dialect import TransformOp
from repro.core.interpreter import TransformInterpreter
from repro.core.state import TransformState
from repro.dialects import arith, builtin, func, linalg, scf
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder
from repro.ir.attributes import UnitAttr
from repro.ir.types import memref


def two_loops(nested, uppers=(10, 18), step=2):
    """``func @f`` with two empty ``scf.for 0..upper step`` loops, the
    second nested in the first or following it."""
    module = builtin.module()
    function = func.func("f", [])
    module.body.append(function)
    builder = Builder.at_end(function.body)
    lb, st = arith.index_constant(builder, 0), arith.index_constant(
        builder, step)
    first = scf.for_(builder, lb, arith.index_constant(builder, uppers[0]),
                     st)
    second_builder = Builder.at_end(first.body) if nested else builder
    second = scf.for_(second_builder, lb,
                      arith.index_constant(second_builder, uppers[1]), st)
    scf.yield_(Builder.at_end(second.body))
    scf.yield_(Builder.at_end(first.body))
    func.return_(builder)
    return module


def matmuls(nested):
    """``func @f`` with a ``linalg.matmul`` on memrefs; ``nested`` puts
    a second one in its region, which transforming the first destroys."""
    module = builtin.module()
    function = func.func("f", [memref(4, 4)] * 3)
    module.body.append(function)
    builder = Builder.at_end(function.body)
    args = list(function.body.args)
    outer = builder.create("linalg.matmul", operands=args,
                           regions=int(nested))
    if nested:
        linalg.matmul(Builder.at_end(outer.regions[0].add_block()), *args)
    func.return_(builder)
    return module


def matmul_nest():
    return build_matmul_module(4, 4, 4)


#: (op, attributes, result count, payload whose first matched op
#: contains the later ones, op name matched with position "all").
EACH_OP = [
    ("loop.tile", {"tile_sizes": [2]}, 2, matmul_nest, "scf.for"),
    ("loop.split", {"div_by": 4}, 2, lambda: two_loops(True), "scf.for"),
    ("loop.unroll", {"full": UnitAttr()}, 0, matmul_nest, "scf.for"),
    ("loop.peel", {}, 2, lambda: two_loops(True), "scf.for"),
    ("structured.generalize", {}, 1, lambda: matmuls(True),
     "linalg.matmul"),
    ("structured.lower_to_loops", {}, 1, lambda: matmuls(True),
     "linalg.matmul"),
    ("to_library", {"library": "libxsmm"}, 0, matmul_nest, "scf.for"),
]


def each_op_script(name, attributes, n_results, matched, position="all"):
    script, builder, root = transform.sequence()
    handle = transform.match_op(builder, root, matched, position=position)
    op = builder.create(f"transform.{name}", operands=[handle],
                        result_types=[transform.ANY_OP] * n_results,
                        attributes=attributes)
    transform.yield_(builder)
    return script, op


def run_body(script, payload):
    """Run the script's body, returning the result and the state."""
    state = TransformState(payload)
    state.set_payload(script.body.args[0], [payload])
    return TransformInterpreter().run_block(script.body, state), state


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_table_covers_every_op_using_the_helper():
    users = {
        cls.NAME[len("transform."):]
        for cls in _subclasses(TransformOp)
        if "apply_each" in inspect.getsource(cls.apply)
    }
    assert users == {row[0] for row in EACH_OP}


@pytest.mark.parametrize("name,attributes,n_results,payload,matched",
                         EACH_OP, ids=[row[0] for row in EACH_OP])
def test_op_destroyed_by_an_earlier_iteration_is_silenceable(
        name, attributes, n_results, payload, matched):
    script, _ = each_op_script(name, attributes, n_results, matched)
    result = TransformInterpreter().apply(script, payload())
    assert result.is_silenceable
    assert "destroyed while processing" in result.message


def test_loop_transform_error_names_the_payload_op():
    payload = build_matmul_module(6, 4, 4)
    loop = next(payload.walk_ops("scf.for"))
    script, _ = each_op_script("loop.tile", {"tile_sizes": [4]}, 2,
                               "scf.for", position="first")
    interpreter = TransformInterpreter()
    result = interpreter.apply(script, payload)
    assert result.is_silenceable
    assert result.payload_ops == [loop]
    assert "on payload op 'scf.for'" in interpreter.diagnostics.render()


def test_to_library_on_a_non_loop_is_silenceable():
    # It used to reach into ``body`` of the op and fail definitely with
    # an uncaught AttributeError.
    script, _ = each_op_script("to_library", {"library": "libxsmm"}, 0,
                               "memref.load", position="first")
    result = TransformInterpreter().apply(script, build_matmul_module(4, 4, 4))
    assert result.is_silenceable
    assert "matmul match requires an scf.for, got memref.load" \
        in result.message


@pytest.mark.parametrize("name,attributes", [("loop.split", {"div_by": 4}),
                                             ("loop.peel", {})])
def test_results_follow_payload_order(name, attributes):
    """Over two sibling loops the i-th result maps the i-th product of
    every loop, in payload order: first's main, second's main / first's
    rest, second's rest."""
    payload = two_loops(nested=False)
    script, op = each_op_script(name, attributes, 2, "scf.for")
    result, state = run_body(script, payload)
    assert result.succeeded
    first_main, first_rest, second_main, second_rest = \
        payload.walk_ops("scf.for")
    assert state.get_payload(op.results[0]) == [first_main, second_main]
    assert state.get_payload(op.results[1]) == [first_rest, second_rest]


@pytest.mark.parametrize("name,attributes,n_results,payload,matched", [
    ("loop.split", {"div_by": 4}, 1, lambda: two_loops(False), "scf.for"),
    ("structured.generalize", {}, 0, lambda: matmuls(False),
     "linalg.matmul"),
    ("structured.lower_to_loops", {}, 0, lambda: matmuls(False),
     "linalg.matmul"),
], ids=["split-one-result", "generalize-no-result",
        "lower_to_loops-no-result"])
def test_fewer_results_than_products_map_what_is_declared(
        name, attributes, n_results, payload, matched):
    """An op declaring fewer results than its transform produces maps
    the results it declares."""
    module = payload()
    script, op = each_op_script(name, attributes, n_results, matched)
    result, state = run_body(script, module)
    assert result.succeeded
    if n_results:
        mains = state.get_payload(op.results[0])
        assert [loop.trip_count() for loop in mains] == [4, 8]
    else:
        assert not list(module.walk_ops("linalg.matmul"))

