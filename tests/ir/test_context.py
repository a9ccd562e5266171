"""Tests for the context, symbol tables and diagnostics."""

import pytest

from repro.dialects import builtin, func
from repro.ir import (
    Builder,
    Context,
    Diagnostic,
    DiagnosticEngine,
    I32,
    Severity,
    SymbolTable,
    lookup_symbol,
    nearest_symbol_table,
)


class TestContext:
    def test_load_dialect(self):
        context = Context()
        context.load_dialect("arith")
        assert "arith" in context.loaded_dialects

    def test_load_twice_is_idempotent(self):
        context = Context()
        context.load_dialect("scf")
        context.load_dialect("scf")
        assert context.loaded_dialects.count("scf") == 1

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            Context().load_dialect("nope")


class TestSymbolTable:
    def build(self):
        module = builtin.module()
        f = func.func("alpha", [I32])
        module.body.append(f)
        return module, f

    def test_lookup(self):
        module, f = self.build()
        table = SymbolTable(module)
        assert table.lookup("alpha") is f
        assert table.lookup("beta") is None

    def test_requires_symbol_table_trait(self):
        _module, f = self.build()
        with pytest.raises(ValueError):
            SymbolTable(f)

    def test_insert_renames_on_collision(self):
        module, _f = self.build()
        table = SymbolTable(module)
        duplicate = func.func("alpha", [])
        table.insert(duplicate)
        assert duplicate.sym_name == "alpha_0"
        assert table.lookup("alpha_0") is duplicate

    def test_symbols_dict(self):
        module, _f = self.build()
        SymbolTable(module).insert(func.func("beta", []))
        assert set(SymbolTable(module).symbols()) == {"alpha", "beta"}

    def test_nearest_symbol_table(self):
        module, f = self.build()
        inner_op = Builder.at_end(f.body).create("test.op")
        assert nearest_symbol_table(inner_op) is module

    def test_lookup_symbol_from_nested(self):
        module, f = self.build()
        call = Builder.at_end(f.body).create("test.op")
        assert lookup_symbol(call, "alpha") is f
        assert lookup_symbol(call, "missing") is None


class TestDiagnostics:
    def test_collects(self):
        engine = DiagnosticEngine()
        engine.error("bad")
        engine.warning("meh")
        engine.remark("fyi")
        assert len(engine.errors) == 1
        assert len(engine.warnings) == 1
        assert engine.has_errors()

    def test_notes_render(self):
        diagnostic = Diagnostic(Severity.ERROR, "main problem")
        diagnostic.attach_note("more detail")
        rendered = str(diagnostic)
        assert "main problem" in rendered
        assert "note: more detail" in rendered

    def test_clear_and_render(self):
        engine = DiagnosticEngine()
        engine.error("x")
        assert "x" in engine.render()
        engine.clear()
        assert not engine.diagnostics
