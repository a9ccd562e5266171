"""A macro is a function (paper §3.4): ``transform.include`` is a call
of a function-like ``named_sequence``, resolved, cycle-checked and
inlined by the same code as ``func.call``, and a script has one entry
rule. Recursive macros are rejected statically and, when nobody linted
the script, fail definitely at the first re-entry."""

import ast
import pathlib

import pytest

import repro
from repro.analysis import lint_script
from repro.core import (
    ScriptTransformError,
    TransformInterpreter,
    TransformInterpreterError,
    dialect as transform,
    expand_includes,
)
from repro.execution.workloads import build_matmul_module
from repro.ir import Operation
from repro.ir.printer import print_op
from repro.service import CompileEngine, CompileJob, JobStatus


def recursive_script(terminated: bool = False):
    """``@rec`` includes itself; with ``terminated`` each level first
    fully unrolls one loop, so on a finite nest a silenceable
    ``match_op`` failure is what ends the recursion."""
    module = Operation.create("builtin.module", regions=1)
    block = module.regions[0].add_block()
    rec, rec_builder, (arg,) = transform.named_sequence("rec")
    if terminated:
        loop = transform.match_op(rec_builder, arg, "scf.for",
                                  position="first")
        transform.loop_unroll(rec_builder, loop, full=True)
    reentry = transform.include(rec_builder, "rec", [arg])
    transform.yield_(rec_builder)
    block.append(rec)
    seq, builder, root = transform.sequence()
    transform.include(builder, "rec", [root])
    transform.yield_(builder)
    block.append(seq)
    return module, reentry


def run_engine(script):
    job = CompileJob(payload_text=print_op(build_matmul_module(2, 2, 2)),
                     script_text=print_op(script))
    with CompileEngine(workers=0, cache=None) as engine:
        return engine.run_job(job), engine.stats


class TestRecursiveMacros:
    def test_engine_rejects_self_including_macro(self):
        result, stats = run_engine(recursive_script()[0])
        assert result.status is JobStatus.REJECTED
        assert stats.executed == 0
        assert "recursive transform.include of @rec" in result.diagnostics

    def test_match_op_terminated_recursion_is_rejected(self):
        # As written this unrolls every loop and then fails silenceably
        # on the empty match — still a recursive macro, still refused.
        result, stats = run_engine(recursive_script(terminated=True)[0])
        assert result.status is JobStatus.REJECTED
        assert stats.executed == 0

    def test_lint_error_sits_at_the_reentering_include(self):
        script, reentry = recursive_script()
        errors = lint_script(script).errors
        assert [e.location for e in errors
                if "recursive" in e.message] == [reentry.location]

    @pytest.mark.parametrize("terminated", [False, True])
    def test_interpreter_fails_definitely_at_first_reentry(self,
                                                           terminated):
        interpreter = TransformInterpreter()
        with pytest.raises(TransformInterpreterError,
                           match="recursive transform.include of @rec"):
            interpreter.apply(recursive_script(terminated)[0],
                              build_matmul_module(2, 2, 2))
        assert interpreter.stats.exceptions_contained == 0

    def test_reentering_the_entry_sequence_fails(self):
        main, builder, (arg,) = transform.named_sequence("main")
        transform.include(builder, "main", [arg])
        transform.yield_(builder)
        module = Operation.create("builtin.module", regions=1)
        module.regions[0].add_block().append(main)
        with pytest.raises(TransformInterpreterError,
                           match="recursive transform.include of @main"):
            TransformInterpreter().apply(module, build_matmul_module(2, 2, 2),
                                         entry_point="main")

    def test_expand_includes_names_the_cycle(self):
        with pytest.raises(ScriptTransformError,
                           match="recursive transform.include of @rec"):
            expand_includes(recursive_script()[0])


# -- one implementation of each question --------------------------------------

SRC = pathlib.Path(repro.__file__).parent


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _calls(tree, name):
    """Calls of ``name`` as a function or a method in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def _defs(name):
    return [module for module, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name]


class TestOneImplementation:
    def test_lookup_symbol_is_called_only_by_the_resolver(self):
        callers = {module for module, tree in _modules()
                   if _calls(tree, "lookup_symbol")}
        assert callers == {"ir/context.py"}
        assert _defs("find_callee") == ["ir/context.py"]

    def test_one_entry_rule(self):
        assert _defs("find_entry") == ["core/interpreter.py"]
        assert _defs("top_level_ops") == ["core/interpreter.py"]
        users = {module for module, tree in _modules()
                 if _calls(tree, "find_entry")}
        assert users == {"core/interpreter.py", "analysis/lint.py",
                         "analysis/pipeline.py", "service/sharding.py"}

    def test_one_cycle_check_and_one_body_splice(self):
        assert _defs("detect_recursion") == ["passes/inliner.py"]
        assert _defs("inline_call") == ["passes/inliner.py"]
        users = {module for module, tree in _modules()
                 if _calls(tree, "detect_recursion")}
        assert users == {"passes/inliner.py", "core/script_transforms.py",
                         "analysis/lint.py"}
        assert {module for module, tree in _modules()
                if _calls(tree, "inline_call")} == \
            {"passes/inliner.py", "core/script_transforms.py"}

    def test_include_callee_is_read_off_the_op(self):
        readers = {module for module, tree in _modules()
                   if _calls(tree, "callee")}
        assert {"core/dialect.py", "core/script_transforms.py",
                "analysis/invalidation.py", "analysis/pipeline.py",
                "analysis/lint.py"} <= readers

    @pytest.mark.parametrize("name", [
        "_named_sequences", "_include_graph_has_cycle", "_inline_include",
        "_resolve_include", "_find_entry", "_run_preflight",
        "analyze_invalidation", "_entry_sequence",
    ])
    def test_copies_are_gone(self, name):
        assert _defs(name) == []

    def test_interpreter_has_no_preflight_option(self):
        import inspect

        assert "preflight" not in inspect.signature(
            TransformInterpreter).parameters
