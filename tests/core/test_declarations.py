"""A transform op is one declaration (DESIGN.md): the facts every
client reads off the op class, checked against what the per-client name
tables said before they were deleted, and against an op nobody but its
own class knows about."""

import ast
import pathlib

import pytest

import repro
from repro.analysis import analyze_script, lint_script
from repro.core import dialect as transform
from repro.core.dialect import TransformOp, declared
from repro.ir.core import OP_REGISTRY, Operation, register_op
from repro.passes.manager import PassManager
from repro.service import is_func_shardable

#: What the nine tables said at the parent commit (a6892cc), per
#: registered transform op with default attributes: ``CONSUMES``,
#: ``DERIVES_*``, ``RESULT_ONLY_OPS``, ``_PURE_NAVIGATION`` (erasable
#: when unused), ``SHARDABLE_OPS``, ``may_fail_silenceably``,
#: ``ALWAYS_FAILING``.
PARENT_TABLES = {
    "transform.alternatives": ((), None, False, False, False, True, False),
    "transform.annotate": ((), None, False, False, True, False, False),
    "transform.apply_patterns": ((), None, False, False, True, False, False),
    "transform.apply_registered_pass":
        ((), None, False, False, False, False, False),
    "transform.autodiff": ((), None, False, False, False, False, False),
    "transform.cast": ((), "subset", True, True, True, True, False),
    "transform.foreach": ((), None, False, False, False, True, False),
    "transform.get_parent_op":
        ((), "enclosing", True, True, True, True, False),
    "transform.include": ((), None, False, False, False, True, False),
    "transform.loop.hoist": ((), None, False, False, True, True, False),
    "transform.loop.interchange": ((), None, False, False, True, True, False),
    "transform.loop.peel": ((0,), None, False, False, True, True, False),
    "transform.loop.split": ((0,), None, False, False, True, True, False),
    "transform.loop.tile": ((0,), None, False, False, True, True, False),
    "transform.loop.unroll": ((0,), None, False, False, True, True, False),
    "transform.loop.vectorize": ((), None, False, False, True, True, False),
    "transform.match_op": ((), "nested", True, True, True, False, False),
    "transform.merge_handles": ((), "subset", True, True, True, False, False),
    "transform.named_sequence": ((), None, False, False, False, False, False),
    "transform.num_payload_ops": ((), None, True, True, False, False, False),
    "transform.param.constant": ((), None, True, True, True, False, False),
    "transform.pattern": ((), None, False, False, False, False, False),
    "transform.print": ((), None, False, False, False, False, False),
    "transform.select": ((), "subset", True, False, True, False, False),
    "transform.sequence": ((), None, False, False, True, True, False),
    "transform.split_handle": ((), "subset", True, False, False, True, False),
    "transform.structured.generalize":
        ((0,), None, False, False, True, True, False),
    "transform.structured.lower_to_loops":
        ((0,), None, False, False, True, True, False),
    "transform.test.emit_definite":
        ((), None, False, False, False, False, True),
    "transform.test.emit_silenceable":
        ((), None, False, False, False, True, True),
    "transform.to_library": ((0,), None, False, False, False, True, False),
    "transform.yield": ((), None, False, False, True, False, False),
}

#: Where "erased when unused" moved on purpose: the old table called
#: these three erasable although they can fail silenceably (the drift),
#: and left out ``select``, which only produces a handle and cannot.
ERASABILITY_MOVED = {
    "transform.get_parent_op": False,
    "transform.cast": False,
    "transform.select": True,
}


#: Declared after the tables were gone: ``loop.tile``'s point band
#: (result 1) is nested in its tile band (result 0), an edge no table
#: had, so no checker saw the inner handle die with the outer one.
NESTED_RESULTS = {"transform.loop.tile": ((1, 0),)}


def _erasable(op):
    facts = declared(op)
    return facts.RESULT_ONLY and not facts.may_fail_silenceably()


class TestNothingMoved:
    def test_the_table_lists_every_op_of_the_dialect(self):
        classes = {
            cls.NAME for cls in vars(transform).values()
            if isinstance(cls, type) and issubclass(cls, TransformOp)
            and cls.NAME
        }
        assert classes == set(PARENT_TABLES)

    @pytest.mark.parametrize("name", sorted(PARENT_TABLES))
    def test_declared_facts_equal_the_tables(self, name):
        (consumes, derives, result_only, erasable, shardable, may_fail,
         always_fails) = PARENT_TABLES[name]
        op = Operation.create(name)
        assert type(op) is OP_REGISTRY[name] and declared(op) is op
        assert op.CONSUMES == consumes
        assert op.DERIVES == derives
        assert op.NESTED_RESULTS == NESTED_RESULTS.get(name, ())
        assert op.RESULT_ONLY == result_only
        assert op.FUNCTION_LOCAL == shardable
        assert op.may_fail_silenceably() == may_fail
        assert op.ALWAYS_FAILS == always_fails
        assert _erasable(op) == ERASABILITY_MOVED.get(name, erasable)

    @pytest.mark.parametrize("position, positional", [
        (None, False), ("all", False),
        ("first", True), ("second", True), ("last", True),
    ])
    def test_match_op_by_position(self, position, positional):
        op = Operation.create(
            "transform.match_op",
            attributes={"position": position} if position else None)
        assert op.may_fail_silenceably() == positional
        assert op.is_function_local() == (not positional)
        # The old table erased an unused positional match too.
        assert _erasable(op) == (not positional)

    @pytest.mark.parametrize("op_name, local", [
        (None, False), ("builtin.module", False), ("func.func", True),
    ])
    def test_get_parent_op_by_target(self, op_name, local):
        op = Operation.create(
            "transform.get_parent_op",
            attributes={"op_name": op_name} if op_name else None)
        assert op.is_function_local() == local

    def test_alternatives_by_empty_region(self):
        op = Operation.create("transform.alternatives", regions=2)
        for region in op.regions:
            region.add_block().append(Operation.create("transform.yield"))
        assert op.may_fail_silenceably()
        op.regions[1].entry_block.ops[0].erase()
        assert not op.may_fail_silenceably()

    @pytest.mark.parametrize("failures, may_fail", [
        (None, True), ("propagate", True), ("suppress", False),
    ])
    def test_sequence_by_failure_mode(self, failures, may_fail):
        op = Operation.create(
            "transform.sequence",
            attributes={"failures": failures} if failures else None)
        assert op.may_fail_silenceably() == may_fail
        assert op.suppresses_failures == (not may_fail)

    def test_an_undeclared_op_gets_the_conservative_defaults(self):
        # What each table's fall-through meant: derives nothing,
        # consumes nothing, may fail, not dead, not function-local.
        facts = declared(Operation.create("transform.nobody_declared_me"))
        assert facts.CONSUMES == () and facts.DERIVES is None
        assert facts.NESTED_RESULTS == ()
        assert facts.may_fail_silenceably() and not facts.ALWAYS_FAILS
        assert not facts.RESULT_ONLY and not facts.is_function_local()


@register_op
class _ConsumingLocalOp(TransformOp):
    NAME = "transform.test.declared_consuming"
    CONSUMES = (0,)
    FUNCTION_LOCAL = True
    RESULT_ONLY = False


@register_op
class _QueryOp(TransformOp):
    NAME = "transform.test.declared_query"
    RESULT_ONLY = True
    MAY_FAIL_SILENCEABLY = False


def _script(op_name, n_results=0, reuse=False):
    script, builder, root = transform.sequence()
    loops = transform.match_op(builder, root, "scf.for")
    builder.create(op_name, operands=[loops],
                   result_types=[transform.ANY_OP] * n_results)
    if reuse:
        transform.annotate(builder, loops, "after")
    transform.yield_(builder)
    return script


class TestOneDeclarationIsEnough:
    """An op defined here, known to no table: every client follows its
    class (fails at the parent commit — ``is_func_shardable`` said
    False, the lint and the simplifier ignored ``_QueryOp``)."""

    def test_consuming_op_is_tracked_gated_and_kept(self):
        script = _script(_ConsumingLocalOp.NAME, reuse=True)
        (issue,) = analyze_script(script, may_alias=False)
        assert issue.consume_op.name == _ConsumingLocalOp.NAME
        assert issue.use_op.name == "transform.annotate"
        assert is_func_shardable(script)
        PassManager(["canonicalize", "cse"]).run(script)
        assert list(script.walk_ops(_ConsumingLocalOp.NAME))

    def test_unused_query_op_is_warned_about_and_erased(self):
        script = _script(_QueryOp.NAME, n_results=1)
        assert [str(w) for w in lint_script(script).warnings
                if _QueryOp.NAME in str(w)
                and "dead handle" in str(w)]
        assert not is_func_shardable(script)
        PassManager(["canonicalize", "cse"]).run(script)
        assert not list(script.walk_ops(_QueryOp.NAME))


def test_no_module_keeps_a_table_of_transform_op_names():
    """The next per-client name table is a red test, not the next
    drift: outside the dialect, the shipped library text and the fuzz
    generator, no module-level collection literal names two ops."""
    root = pathlib.Path(repro.__file__).parent
    exempt = {"core/dialect.py", "core/schedules.py", "testing/fuzz.py"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() in exempt:
            continue
        for statement in ast.parse(path.read_text()).body:
            value = getattr(statement, "value", None)
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)) \
                    or value is None:
                continue
            nodes = list(ast.walk(value))
            names = [n.value for n in nodes if isinstance(n, ast.Constant)
                     and isinstance(n.value, str)
                     and n.value.startswith("transform.")]
            if len(names) >= 2 and any(
                    isinstance(n, (ast.Set, ast.Dict, ast.Tuple, ast.List))
                    for n in nodes):
                offenders.append(f"{path.relative_to(root)}:"
                                 f"{statement.lineno}: {names}")
    assert not offenders, offenders
