"""Tests for the repro-opt tool surface (textual in, textual out)."""

import pytest

from repro.core import dialect as transform
from repro.execution.workloads import build_matmul_module
from repro.ir.printer import print_op
from repro.tools import ToolError, main, pipeline_opt, transform_opt


@pytest.fixture
def payload_text():
    return print_op(build_matmul_module(8, 4, 4))


def script_text(with_error=False):
    script, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    main_part, rest = transform.loop_split(builder, loop, 4)
    transform.loop_tile(builder, main_part, [4])
    transform.loop_unroll(builder, rest, full=True)
    if with_error:
        transform.loop_unroll(builder, rest, full=True)
    transform.yield_(builder)
    return print_op(script)


class TestTransformOpt:
    def test_round_trips_through_text(self, payload_text):
        output = transform_opt(payload_text, script_text())
        assert '"func.call"' not in output
        assert output.count('"scf.for"') == 4  # i0, i1, j, k

    def test_static_check_catches_script_error(self, payload_text,
                                               capsys):
        with pytest.raises(ToolError, match="verification failed"):
            transform_opt(payload_text, script_text(with_error=True),
                          verify=True)
        assert "error: 'transform.loop.unroll' uses an invalidated " \
            "handle" in capsys.readouterr().err

    def test_without_check_error_is_dynamic(self, payload_text):
        from repro.core import TransformInterpreterError

        with pytest.raises(TransformInterpreterError):
            transform_opt(payload_text, script_text(with_error=True))

    def test_check_runs_pipeline_conditions(self, payload_text, capsys):
        """A lowering script that leaks non-llvm ops fails --verify."""
        from repro.core import pipeline_to_transform_script

        script = pipeline_to_transform_script(["convert-scf-to-cf"])
        with pytest.raises(ToolError, match="verification failed"):
            transform_opt(payload_text, print_op(script), verify=True)
        err = capsys.readouterr().err
        assert "error:" in err and "llvm.*" in err

    def test_output_reparses(self, payload_text):
        from repro.ir.parser import parse

        output = transform_opt(payload_text, script_text())
        parse(output).verify()

    def test_verify_reports_mlir_style_diagnostics(self, payload_text,
                                                   capsys):
        with pytest.raises(ToolError,
                           match="static verification failed"):
            transform_opt(payload_text, script_text(with_error=True),
                          verify=True)
        err = capsys.readouterr().err
        assert "uses an invalidated handle" in err
        assert "note:" in err


class TestPipelineOpt:
    def test_canonicalize(self, payload_text):
        output = pipeline_opt(payload_text, "canonicalize,cse")
        assert '"scf.for"' in output

    def test_unknown_pass(self, payload_text):
        with pytest.raises(ValueError):
            pipeline_opt(payload_text, "bogus-pass")


class TestCLI:
    def test_main_with_files(self, payload_text, tmp_path, capsys):
        payload_file = tmp_path / "payload.mlir"
        payload_file.write_text(payload_text)
        script_file = tmp_path / "schedule.mlir"
        script_file.write_text(script_text())
        code = main([str(payload_file), "--script", str(script_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"builtin.module"' in out

    def test_main_pipeline_mode(self, payload_text, tmp_path, capsys):
        payload_file = tmp_path / "payload.mlir"
        payload_file.write_text(payload_text)
        code = main([str(payload_file), "--pipeline", "canonicalize"])
        assert code == 0

    def test_main_verify_failure_exit_code(self, payload_text,
                                           tmp_path, capsys):
        payload_file = tmp_path / "payload.mlir"
        payload_file.write_text(payload_text)
        script_file = tmp_path / "schedule.mlir"
        script_file.write_text(script_text(with_error=True))
        code = main([str(payload_file), "--script", str(script_file),
                     "--verify"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("then_fail", [False, True])
    def test_main_shows_transform_print_on_stderr(self, payload_text,
                                                  tmp_path, capsys,
                                                  then_fail):
        """transform.print output reaches stderr, also when the run
        then ends in a definite error; stdout stays the payload."""
        script, builder, root = transform.sequence()
        function = transform.match_op(builder, root, "func.func")
        transform.print_(builder, function, "HELLO-FROM-PRINT")
        if then_fail:
            builder.create("transform.test.emit_definite")
        transform.yield_(builder)
        payload_file = tmp_path / "payload.mlir"
        payload_file.write_text(payload_text)
        script_file = tmp_path / "s.mlir"
        script_file.write_text(print_op(script))
        code = main([str(payload_file), "--script", str(script_file)])
        captured = capsys.readouterr()
        assert code == (1 if then_fail else 0)
        assert "HELLO-FROM-PRINT" in captured.err
        assert "HELLO-FROM-PRINT" not in captured.out
        assert '"func.func"' in captured.err

    def test_main_writes_output_file(self, payload_text, tmp_path):
        payload_file = tmp_path / "payload.mlir"
        payload_file.write_text(payload_text)
        script_file = tmp_path / "schedule.mlir"
        script_file.write_text(script_text())
        out_file = tmp_path / "out.mlir"
        code = main([str(payload_file), "--script", str(script_file),
                     "-o", str(out_file)])
        assert code == 0
        assert '"scf.for"' in out_file.read_text()
