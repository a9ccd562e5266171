"""The compilation context: dialect loading and symbol tables.

Operations are registered in a process-wide registry (see
``repro.ir.core``); the context tracks which *dialects* have been loaded
and offers symbol-table lookups, mirroring MLIR's ``MLIRContext`` and
``SymbolTable`` utilities.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional

from .attributes import StringAttr
from .core import Operation, SymbolTableTrait
from .diagnostics import DiagnosticEngine

#: Dialects shipped with the library, loadable by short name.
_BUILTIN_DIALECT_MODULES = {
    "builtin": "repro.dialects.builtin",
    "func": "repro.dialects.func",
    "arith": "repro.dialects.arith",
    "scf": "repro.dialects.scf",
    "cf": "repro.dialects.cf",
    "memref": "repro.dialects.memref",
    "affine": "repro.dialects.affine",
    "llvm": "repro.dialects.llvm",
    "index": "repro.dialects.index",
    "tensor": "repro.dialects.tensor",
    "linalg": "repro.dialects.linalg",
    "tosa": "repro.dialects.tosa",
    "vector": "repro.dialects.vector",
    "stablehlo": "repro.dialects.stablehlo",
    "transform": "repro.core.dialect",
}


class Context:
    """Holds loaded dialects and a diagnostics engine."""

    def __init__(self, load_all: bool = False):
        self.loaded_dialects: List[str] = []
        self.diagnostics = DiagnosticEngine()
        if load_all:
            self.load_all_dialects()

    def load_dialect(self, name: str) -> None:
        """Import the module registering the dialect's operations."""
        if name in self.loaded_dialects:
            return
        module = _BUILTIN_DIALECT_MODULES.get(name)
        if module is None:
            raise ValueError(f"unknown dialect: {name}")
        importlib.import_module(module)
        self.loaded_dialects.append(name)

    def load_all_dialects(self) -> None:
        for name in _BUILTIN_DIALECT_MODULES:
            self.load_dialect(name)


class SymbolTable:
    """Symbol lookup within an op carrying the SymbolTable trait."""

    def __init__(self, symbol_table_op: Operation):
        if not symbol_table_op.has_trait(SymbolTableTrait):
            raise ValueError(
                f"{symbol_table_op.name} does not define a symbol table"
            )
        self.op = symbol_table_op

    def lookup(self, name: str) -> Optional[Operation]:
        """Find the symbol op named ``name`` directly inside the table."""
        for block in self.op.regions[0].blocks:
            for op in block.ops:
                sym = op.attr("sym_name")
                if isinstance(sym, StringAttr) and sym.value == name:
                    return op
        return None

    def insert(self, op: Operation) -> None:
        """Append a symbol op, renaming on collision (``name_0``, ...)."""
        sym = op.attr("sym_name")
        if isinstance(sym, StringAttr) and self.lookup(sym.value) is not None:
            base = sym.value
            counter = 0
            while self.lookup(f"{base}_{counter}") is not None:
                counter += 1
            op.set_attr("sym_name", f"{base}_{counter}")
        self.op.regions[0].entry_block.append(op)

    def symbols(self) -> Dict[str, Operation]:
        out: Dict[str, Operation] = {}
        for block in self.op.regions[0].blocks:
            for op in block.ops:
                sym = op.attr("sym_name")
                if isinstance(sym, StringAttr):
                    out[sym.value] = op
        return out


def nearest_symbol_table(op: Operation) -> Optional[Operation]:
    """Walk up from ``op`` to the closest symbol-table-defining ancestor."""
    current = op if op.has_trait(SymbolTableTrait) else op.parent_op
    while current is not None and not current.has_trait(SymbolTableTrait):
        current = current.parent_op
    return current


def lookup_symbol(from_op: Operation, name: str) -> Optional[Operation]:
    """Resolve ``name`` against enclosing symbol tables, innermost first."""
    table_op = nearest_symbol_table(from_op)
    while table_op is not None:
        found = SymbolTable(table_op).lookup(name)
        if found is not None:
            return found
        parent = table_op.parent_op
        table_op = nearest_symbol_table(parent) if parent is not None else None
    return None


def find_callee(call_op: Operation,
                callee_attr: str = "callee") -> Optional[Operation]:
    """The symbol a call op's ``callee_attr`` names (``func.call`` /
    ``callee``, ``transform.include`` / ``target``), resolved from the
    call site; None when the attribute is missing or names nothing."""
    attr = call_op.attr(callee_attr)
    name = getattr(attr, "name", None) or getattr(attr, "value", None)
    if not isinstance(name, str):
        return None
    return lookup_symbol(call_op, name)
