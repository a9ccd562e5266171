"""A macro is a function (paper §3.4): ``transform.include`` is a call
of a function-like ``named_sequence``, resolved, cycle-checked,
arity-checked and inlined by the same code as ``func.call``, a script
has one entry rule, and the static analyses read the script with its
macros inlined. The interpreter runs that same inlined script: an
include has no interpreter rule, and an ill-formed one (unknown,
recursive, arity-mismatched) fails definitely before anything runs,
with the message lint reports."""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from repro.analysis import ForwardAnalysis, InvalidationAnalysis, lint_script
from repro.core import (
    ScriptTransformError,
    TransformInterpreter,
    TransformInterpreterError,
    dialect as transform,
    expand_includes,
)
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder, Operation
from repro.ir.hashing import op_digest
from repro.ir.location import UNKNOWN_LOC, CallSiteLoc, FileLineColLoc
from repro.ir.printer import print_op
from repro.service import CompileEngine, CompileJob, JobStatus


def at(line):
    return FileLineColLoc("script.mlir", line, 1)


def frames(location):
    """A location's frames, innermost callee first."""
    if isinstance(location, CallSiteLoc):
        return frames(location.callee) + frames(location.caller)
    return [location]


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


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
        # The cycle is found before anything runs, not at the re-entry.
        assert interpreter.stats.transforms_executed == 0

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


class TestInlinedLocations:
    def build_two_deep(self):
        """main includes @outer (line 9), which includes @inner (line
        6), whose print (line 3) sits in an alternatives region."""
        module = script_module()
        block = module.regions[0].entry_block
        inner, ib, (iarg,) = transform.named_sequence("inner")
        alts = transform.alternatives(ib, 1)
        transform.print_(Builder.at_end(alts.regions[0].entry_block),
                         iarg, "hi").location = at(3)
        transform.yield_(ib)
        block.append(inner)
        outer, ob, (oarg,) = transform.named_sequence("outer")
        transform.include(ob, "inner", [oarg]).location = at(6)
        transform.yield_(ob)
        block.append(outer)
        seq, builder, root = transform.sequence()
        transform.include(builder, "outer", [root]).location = at(9)
        transform.yield_(builder)
        block.append(seq)
        return module, seq

    def test_two_deep_include_nests_call_sites(self):
        module, seq = self.build_two_deep()
        expand_includes(module)
        (alts,) = seq.walk_ops("transform.alternatives")
        (printed,) = alts.walk_ops("transform.print")
        # Nested ops are stamped too, and each expansion adds a frame.
        assert isinstance(alts.location, CallSiteLoc)
        assert frames(printed.location) == [at(3), at(6), at(9)]

    def test_locations_move_no_printed_byte_or_digest(self):
        module, _seq = self.build_two_deep()
        expand_includes(module)
        plain = module.clone()
        for op in plain.walk():
            op.location = UNKNOWN_LOC
        assert print_op(plain) == print_op(module)
        assert op_digest(plain) == op_digest(module)


def double_unroll_twice():
    """``@twice`` fully unrolls its argument twice; a top-level sequence
    that does not suppress failures includes it twice."""
    module = script_module()
    block = module.regions[0].entry_block
    macro, mb, (arg,) = transform.named_sequence("twice")
    transform.loop_unroll(mb, arg, full=True).location = at(2)
    transform.loop_unroll(mb, arg, full=True).location = at(3)
    transform.yield_(mb)
    block.append(macro)
    seq, builder, root = transform.sequence()
    for line in (10, 11):
        loop = transform.match_op(builder, root, "scf.for", position="first")
        transform.include(builder, "twice", [loop]).location = at(line)
    transform.yield_(builder)
    block.append(seq)
    return module


class TestGradedAtTheCallSite:
    def test_lint_errors_once_per_call_site(self):
        errors = lint_script(double_unroll_twice()).errors
        assert len(errors) == 2
        assert all("uses an invalidated handle" in error.message
                   for error in errors)
        assert [error.location.caller for error in errors] == [at(10),
                                                               at(11)]

    def test_engine_rejects_before_executing(self):
        result, stats = run_engine(double_unroll_twice())
        assert result.status is JobStatus.REJECTED
        assert stats.executed == 0

    def test_interpreter_locates_a_macro_failure_as_lint_does(self):
        script = double_unroll_twice()
        first = lint_script(script).errors[0]
        with pytest.raises(TransformInterpreterError) as info:
            TransformInterpreter().apply(script, build_matmul_module(2, 2, 2))
        location = info.value.result.location
        assert frames(location) == [at(3), at(10)]
        assert str(location) == str(first.location)
        # The macro was inlined, not called: no include frame.
        assert "transform.include" not in str(info.value)


#: (operands passed, results expected, which count mismatches) for an
#: include of ``@m``, which takes one handle and yields it.
ARITY_SHAPES = [(2, 1, "argument"), (1, 0, "result"), (1, 2, "result")]


def arity_script(n_operands, n_results):
    module = script_module()
    block = module.regions[0].entry_block
    macro, mb, (arg,) = transform.named_sequence("m")
    transform.yield_(mb, [arg])
    block.append(macro)
    seq, builder, root = transform.sequence()
    include = transform.include(builder, "m", [root] * n_operands,
                                n_results=n_results)
    include.location = at(5)
    transform.yield_(builder)
    block.append(seq)
    return module


@pytest.mark.parametrize("n_operands,n_results,kind", ARITY_SHAPES)
class TestIncludeArity:
    def test_lint_error_at_the_include(self, n_operands, n_results, kind):
        errors = lint_script(arity_script(n_operands, n_results)).errors
        assert [(str(e.location), e.message) for e in errors] == [
            (str(at(5)), f"transform.include of @m: {kind} count mismatch")]

    def test_engine_rejects_before_executing(self, n_operands, n_results,
                                             kind):
        result, stats = run_engine(arity_script(n_operands, n_results))
        assert result.status is JobStatus.REJECTED
        assert stats.executed == 0

    def test_expand_includes_raises(self, n_operands, n_results, kind):
        with pytest.raises(ScriptTransformError,
                           match=f"{kind} count mismatch"):
            expand_includes(arity_script(n_operands, n_results))

    def test_interpreter_fails_definitely(self, n_operands, n_results,
                                          kind):
        with pytest.raises(TransformInterpreterError,
                           match=f"transform.include of @m: {kind} count "
                                 "mismatch"):
            TransformInterpreter().apply(arity_script(n_operands, n_results),
                                         build_matmul_module(2, 2, 2))


def unknown_script():
    seq, builder, root = transform.sequence()
    transform.include(builder, "ghost", [root]).location = at(7)
    transform.yield_(builder)
    module = script_module()
    module.regions[0].entry_block.append(seq)
    return module


#: An ill-formed include -> (script, the message every reader gives).
DEFECTS = {
    "unknown": (unknown_script,
                "transform.include of unknown symbol @ghost"),
    "arguments": (lambda: arity_script(2, 1),
                  "transform.include of @m: argument count mismatch"),
    "results": (lambda: arity_script(1, 0),
                "transform.include of @m: result count mismatch"),
    "recursion": (lambda: recursive_script()[0],
                  "recursive transform.include of @rec; macros must be "
                  "acyclic"),
}


def lint_reading(script):
    (error,) = lint_script(script).errors
    return error.message, error.location


def expand_reading(script):
    with pytest.raises(ScriptTransformError) as info:
        expand_includes(script)
    return str(info.value), info.value.op.location


def interpreter_reading(script):
    with pytest.raises(TransformInterpreterError) as info:
        TransformInterpreter().apply(script, build_matmul_module(2, 2, 2))
    return info.value.result.message, info.value.result.location


@pytest.mark.parametrize("reader", [lint_reading, expand_reading,
                                    interpreter_reading])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_each_include_defect_has_one_message(defect, reader):
    build, message = DEFECTS[defect]
    assert reader(build()) == (message, lint_reading(build())[1])


def test_an_ill_formed_include_fails_before_anything_runs():
    """Region 2 of the ``alternatives`` never runs (region 1 succeeds),
    yet its unknown include fails the run before the unroll ahead of
    it touches the payload."""
    payload = build_matmul_module(2, 2, 2)
    before = print_op(payload)
    seq, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for", position="first")
    transform.loop_unroll(builder, loop, full=True)
    alts = transform.alternatives(builder, 2)
    transform.annotate(Builder.at_end(alts.regions[0].entry_block), root,
                       "ran")
    transform.include(Builder.at_end(alts.regions[1].entry_block),
                      "ghost", [root])
    transform.yield_(builder)
    interpreter = TransformInterpreter()
    with pytest.raises(TransformInterpreterError,
                       match="transform.include of unknown symbol @ghost"):
        interpreter.apply(seq, payload)
    assert print_op(payload) == before
    assert interpreter.stats.transforms_executed == 0
    # A failed expansion inlines nothing: the script is as given.
    assert len(list(seq.walk_ops("transform.include"))) == 1


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


def _def_nodes(name):
    return [(module, node) for module, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name]


def _defs(name):
    return [module for module, _node in _def_nodes(name)]


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
                         "analysis/pipeline.py", "service/sharding.py",
                         "testing/fuzz.py"}

    def test_one_cycle_check_and_one_body_splice(self):
        assert _defs("detect_recursion") == ["passes/inliner.py"]
        assert _defs("inline_call") == ["passes/inliner.py"]
        users = {module for module, tree in _modules()
                 if _calls(tree, "detect_recursion")}
        assert users == {"passes/inliner.py", "core/script_transforms.py"}
        assert {module for module, tree in _modules()
                if _calls(tree, "arity_mismatch")} == users
        assert {module for module, tree in _modules()
                if _calls(tree, "inline_call")} == \
            {"passes/inliner.py", "core/script_transforms.py"}

    def test_include_callee_is_read_off_the_op(self):
        readers = {module for module, tree in _modules()
                   if _calls(tree, "callee")}
        assert "core/script_transforms.py" in readers
        # The interpreter and the analyses read the inlined script:
        # none resolves a callee.
        assert not readers & {"core/dialect.py", "core/interpreter.py",
                              "analysis/dataflow.py",
                              "analysis/invalidation.py",
                              "analysis/lint.py", "analysis/pipeline.py"}

    def test_an_include_has_no_interpreter_rule(self):
        assert "apply" not in vars(transform.IncludeOp)
        assert _defs("include_errors") == ["core/script_transforms.py"]
        assert {module for module, tree in _modules()
                if _calls(tree, "include_errors")} == {
            "core/script_transforms.py", "analysis/lint.py"}

    def test_one_reading_of_a_script(self):
        (module, helper), = _def_nodes("inlined_script")
        assert module == "core/script_transforms.py"
        assert _calls(helper, "expand_includes")
        assert not _calls(helper, "inline_call")
        assert {module for module, tree in _modules()
                if _calls(tree, "inlined_script")} == {
            "analysis/invalidation.py", "analysis/pipeline.py",
            "frontend/schedule.py"}
        assert {module for module, tree in _modules()
                if _calls(tree, "expand_includes")} <= {
            "core/script_transforms.py", "core/interpreter.py",
            "testing/fuzz.py"}
        assert not _defs("inline_macros")

    @pytest.mark.parametrize("name", [
        "on_include", "summarize", "NamedSequenceSummary",
        "SummaryConsumption", "_including", "_in_progress",
        "interprocedural",
    ])
    def test_call_site_summaries_are_gone(self, name):
        word = re.compile(rf"\b{name}\b")
        assert [path.relative_to(SRC).as_posix()
                for path in sorted(SRC.rglob("*.py"))
                if word.search(path.read_text())] == []

    def test_the_engine_has_no_include_hook(self):
        assert not [name for name in vars(ForwardAnalysis)
                    if "include" in name]
        assert list(inspect.signature(InvalidationAnalysis).parameters) \
            == ["may_alias"]

    @pytest.mark.parametrize("name", [
        "_named_sequences", "_include_graph_has_cycle", "_inline_include",
        "_resolve_include", "_find_entry", "_run_preflight",
        "analyze_invalidation", "_entry_sequence",
    ])
    def test_copies_are_gone(self, name):
        assert _defs(name) == []

    def test_interpreter_has_no_preflight_option(self):
        assert "preflight" not in inspect.signature(
            TransformInterpreter).parameters
