"""Code-line budgets: a ratchet for the line counts ROADMAP.md quotes.

A code line is a line that carries a token other than a comment or
whitespace, outside module, class and function docstrings (a
multi-line string that is not a docstring counts on every line it
spans). Run this file as a script to print the counts::

    python tests/test_code_budget.py src/repro/service src/repro
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: path under ``src/repro`` -> the most code lines it may have. Lower a
#: bound when a change deletes code; raising one needs a reason.
BUDGETS = {
    "analysis": 836,
    "core": 1945,
    "frontend/schedule.py": 448,
    "ir": 2165,
    "passes": 1694,
    "service": 2593,
    "service/engine.py": 591,
    "service/frontier.py": 165,
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count(path: Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(file.read_text()) for file in files)


def test_the_counter_skips_docstrings_comments_and_blank_lines():
    text = '''"""Module
docstring."""

# a comment
def f(x):
    """Doc."""
    y = """not a
docstring"""  # trailing comment
    return (x +

            y)
'''
    assert code_lines(text) == 5


def test_budgets_hold():
    over = {name: count(SRC / name) for name in BUDGETS}
    over = {name: lines for name, lines in over.items()
            if lines > BUDGETS[name]}
    assert not over, f"over budget (code lines): {over} > {BUDGETS}"


if __name__ == "__main__":
    for name in sys.argv[1:]:
        print(f"{count(Path(name))}\t{name}")
