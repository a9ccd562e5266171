"""Loading .py payload/schedule modules, and repro-batch over them."""

import pytest

from repro.frontend import FrontendError
from repro.frontend.loader import (
    is_python_module,
    load_payload_text,
    load_schedule_text,
    read_payload_source,
    read_schedule_source,
)
from repro.ir.parser import parse
from repro.service.cli import main as batch_main

PAYLOAD_PY = """\
from repro import frontend as fe


@fe.jit
def payload(x: fe.F64):
    for i in range(16):
        t = i + 1
"""

SCHEDULE_PY = """\
from repro.frontend import Schedule

SCHEDULE = Schedule()
SCHEDULE.match("scf.for").unroll(full=True)
"""


class TestLoader:
    def test_is_python_module(self):
        assert is_python_module("x.py")
        assert not is_python_module("x.mlir")

    def test_load_payload_text(self, tmp_path):
        path = tmp_path / "payload.py"
        path.write_text(PAYLOAD_PY)
        text = load_payload_text(str(path))
        module = parse(text, "<loaded>")
        assert any(op.name == "scf.for" for op in module.walk())

    def test_load_schedule_text(self, tmp_path):
        path = tmp_path / "schedule.py"
        path.write_text(SCHEDULE_PY)
        text = load_schedule_text(str(path))
        module = parse(text, "<loaded>")
        assert any(op.name == "transform.loop.unroll"
                   for op in module.walk())

    def test_unnamed_single_instance_found(self, tmp_path):
        path = tmp_path / "anon.py"
        path.write_text(PAYLOAD_PY.replace("def payload", "def traced"))
        assert "scf.for" in load_payload_text(str(path))

    def test_missing_payload_rejected(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("X = 1\n")
        with pytest.raises(FrontendError, match="no payload"):
            load_payload_text(str(path))

    def test_ambiguous_payload_rejected(self, tmp_path):
        path = tmp_path / "two.py"
        path.write_text(
            PAYLOAD_PY.replace("def payload", "def first")
            + "\n"
            + PAYLOAD_PY.replace("def payload", "def second")
            .replace("from repro import frontend as fe\n", "")
        )
        with pytest.raises(FrontendError, match="ambiguous"):
            load_payload_text(str(path))

    def test_callable_factory(self, tmp_path):
        path = tmp_path / "factory.py"
        path.write_text(
            "from repro.mlmodels import build_mlp_frontend\n"
            "def PAYLOAD():\n"
            "    return build_mlp_frontend(seq=8, hidden=8)\n"
        )
        assert "tosa.matmul" in load_payload_text(str(path))

    def test_read_source_passthrough(self, tmp_path):
        mlir = tmp_path / "raw.mlir"
        mlir.write_text('"builtin.module"() ({ }) : () -> ()\n')
        assert read_payload_source(str(mlir)).startswith('"builtin')
        assert read_schedule_source(str(mlir)).startswith('"builtin')


class TestBatchCLI:
    def test_local_batch_with_python_inputs(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text(PAYLOAD_PY)
        schedule = tmp_path / "schedule.py"
        schedule.write_text(SCHEDULE_PY)
        out = tmp_path / "out"
        code = batch_main([str(payload), "--schedule", str(schedule),
                           "--jobs", "0", "-o", str(out)])
        assert code == 0
        assert "payload.schedule: success" in capsys.readouterr().out
        transformed = (out / "payload.schedule.mlir").read_text()
        parse(transformed, "<out>").verify()

    def test_directory_mixes_mlir_and_python(self, tmp_path, capsys):
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        (payloads / "traced.py").write_text(PAYLOAD_PY)
        textual = parse(load_payload_text(str(payloads / "traced.py")),
                        "<t>")
        from repro.ir.printer import print_op
        (payloads / "textual.mlir").write_text(print_op(textual))
        schedule = tmp_path / "schedule.py"
        schedule.write_text(SCHEDULE_PY)
        code = batch_main([str(payloads), "--schedule", str(schedule),
                           "--jobs", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "traced.schedule: success" in output
        assert "textual.schedule: success" in output

    def test_broken_python_module_is_a_clean_error(self, tmp_path,
                                                   capsys):
        payload = tmp_path / "broken.py"
        payload.write_text("raise RuntimeError('boom')\n")
        schedule = tmp_path / "schedule.py"
        schedule.write_text(SCHEDULE_PY)
        code = batch_main([str(payload), "--schedule", str(schedule),
                           "--jobs", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
