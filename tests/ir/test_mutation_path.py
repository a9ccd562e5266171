"""Every IR write goes through a mutator of ``repro.ir.core``.

The mutators share one hook, which clears the digest chain and journals
the write's inverse for a transaction's rollback; a write that bypasses
them is neither re-digested nor undone. This guard scans ``src/repro``
(outside ``ir/core.py``) for the direct writes that used to bypass them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: IR fields only ``ir/core.py`` writes.
FIELDS = {"attributes", "args", "successors", "_operands", "_uses", "type"}
#: In-place methods of the lists and dicts those fields hold.
MUTATING_CALLS = {"update", "pop", "setdefault", "clear", "append",
                  "insert", "remove"}
#: Names of trace spans, whose ``attributes`` are no IR.
SPAN_NAMES = {"span", "root"}


def _written_field(target):
    """The IR field ``target`` writes (``x.f`` or ``x.f[...]``), if any."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if not isinstance(target, ast.Attribute) or target.attr not in FIELDS:
        return None
    base = target.value
    if isinstance(base, ast.Name) and base.id in SPAN_NAMES:
        return None
    return target


def direct_writes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_CALLS:
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            if _written_field(target) is not None:
                yield node.lineno, ast.unparse(target)


def test_no_ir_write_bypasses_the_mutators():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "ir/core.py" or relative.startswith("observability/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += [f"{relative}:{line}: {text}"
                 for line, text in direct_writes(tree)]
    assert hits == [], "write through a mutator of repro.ir.core instead"


def test_the_scan_sees_each_kind_of_write():
    source = """
op.attributes = {}
op.attributes["k"] = v
op.attributes.update(k=v)
del op.attributes["k"]
block.args = []
value.type += t
use.value._uses.append(u)
span.attributes["k"] = v
op.name = "x"
"""
    lines = sorted(line for line, _ in direct_writes(ast.parse(source)))
    assert lines == [2, 3, 4, 5, 6, 7, 8]
