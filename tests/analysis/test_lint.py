"""Tests for ``repro-lint`` (the bundled static analysis driver)."""

from repro.analysis import lint_script
from repro.analysis.lint import main as lint_main
from repro.core import dialect as transform
from repro.ir import Operation
from repro.ir.parser import parse
from repro.ir.printer import print_op

CONSUMING_MACRO = '''"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%arg: !transform.any_op):
    "transform.loop.unroll"(%arg) {full = unit} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "consume_it"} : () -> ()
  "transform.sequence"() ({
  ^bb0(%root: !transform.any_op):
    %loop = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
    "transform.include"(%loop) {target = @consume_it} : (!transform.any_op) -> ()
    "transform.print"(%loop) {message = "reused"} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) : () -> ()
}) : () -> ()
'''


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


def double_unroll_script():
    seq, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    transform.loop_unroll(builder, loop, full=True)
    transform.loop_unroll(builder, loop, full=True)
    transform.yield_(builder)
    return seq


def clean_script():
    seq, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    transform.loop_unroll(builder, loop, full=True)
    transform.yield_(builder)
    return seq


class TestLintScript:
    def test_invalidation_error_with_note_chain(self):
        engine = lint_script(double_unroll_script())
        assert engine.has_errors()
        rendered = engine.render()
        assert "uses an invalidated handle" in rendered
        assert "handle was consumed here by 'transform.loop.unroll'" \
            in rendered

    def test_consumer_in_macro_is_located_at_the_call_site(self):
        module = parse(CONSUMING_MACRO, "s.mlir")
        engine = lint_script(module)
        (error,) = engine.errors
        assert str(error.location) == 'loc("s.mlir":11:5)'
        # The note names the unroll in the macro (line 4) at the
        # include (line 10); there is no separate in-body note.
        assert [str(note.location) for note in error.notes] == [
            'loc(callsite(loc("s.mlir":4:5) at loc("s.mlir":10:5)))']
        assert "inside the included sequence" not in engine.render()

    def test_clean_script_has_no_diagnostics(self):
        assert lint_script(clean_script()).diagnostics == []

    def test_dead_handle_warning(self):
        seq, builder, root = transform.sequence()
        transform.match_op(builder, root, "scf.for")  # result unused
        transform.yield_(builder)
        engine = lint_script(seq)
        assert not engine.has_errors()
        assert any("dead handle" in d.message for d in engine.warnings)

    def test_unknown_include_target_is_an_error(self):
        seq, builder, root = transform.sequence()
        transform.include(builder, "ghost", [root])
        transform.yield_(builder)
        engine = lint_script(seq)
        assert any("unknown symbol @ghost" in d.message
                   for d in engine.errors)

    def test_dead_macro_warning(self):
        module = script_module()
        block = module.regions[0].entry_block
        macro, mb, margs = transform.named_sequence("orphan", n_args=1)
        transform.yield_(mb)
        block.append(macro)
        seq, builder, _root = transform.sequence()
        transform.yield_(builder)
        block.append(seq)
        engine = lint_script(module)
        assert any("never included" in d.message
                   for d in engine.warnings)

    def test_pipeline_check_feeds_diagnostics(self):
        seq, builder, root = transform.sequence()
        transform.apply_registered_pass(builder, root,
                                        "convert-scf-to-cf")
        transform.yield_(builder)
        engine = lint_script(seq, payload_specs={"scf.for", "func.func"})
        # cf.* leftovers are not in the default llvm.* final set.
        assert engine.has_errors()
        assert "leftover" in engine.render()


class TestLintCli:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.mlir"
        path.write_text(print_op(clean_script()))
        assert lint_main([str(path)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_error_script_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.mlir"
        path.write_text(print_op(double_unroll_script()))
        assert lint_main([str(path)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_werror_promotes_warnings(self, tmp_path, capsys):
        seq, builder, root = transform.sequence()
        transform.match_op(builder, root, "scf.for")  # dead handle
        transform.yield_(builder)
        path = tmp_path / "warn.mlir"
        path.write_text(print_op(seq))
        assert lint_main([str(path)]) == 0
        assert lint_main([str(path), "--werror"]) == 1
