"""Code-line budgets: a ratchet for the line counts ROADMAP.md quotes.

A code line is a line that carries a token other than a comment or
whitespace, outside module, class and function docstrings (a
multi-line string that is not a docstring counts on every line it
spans). Three more ratchets live here: the lines of README.md and
DESIGN.md (``PROSE_BUDGETS``), the definitions under ``src/repro``
that no non-test code names (``ALLOWLIST``), and the options under
``src/repro`` that no non-test call sets (``UNSET_OPTIONS``); both
lists may only shrink. Run this file as a script to print the code
lines of the paths given, the prose lines, the allowlist length, the
option count and the length of ``UNSET_OPTIONS``::

    python tests/test_code_budget.py src/repro/service src/repro
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: path under ``src/repro`` -> the most code lines it may have. Lower a
#: bound when a change deletes code; raising one needs a reason.
BUDGETS = {
    # -154: every option no non-test call sets goes (``UNSET_OPTIONS``).
    ".": 16508,  # all of src/repro
    "analysis": 807,
    "autotuning": 332,
    # -11: one resolver reads a transform op's and a pass's conditions.
    "core": 1784,
    "core/state.py": 130,
    "dialects": 1208,
    "enzyme": 730,
    "execution": 767,
    "frontend": 1120,
    "frontend/schedule.py": 436,
    # Every IR write calls one hook, which journals the write's
    # inverse for a rollback and does nothing else: digests are not
    # memoized, so no write has one to clear. +34: the undo log itself
    # (``UndoLog``: nesting, commit, rollback, the ops it inserted)
    # moved here from ``core/transaction.py`` (core -30), so a
    # conversion attempt runs under the same log as a transaction.
    # +28: ``hashing.printed`` prints each function of a module once
    # for its print, its digest and its function-tier entry
    # (service -28: the worker's second print and the entry loop's
    # digest go). The lexer reads an operand list and a signature as
    # one lexeme each and the parser sums token offsets only where a
    # location is read at no net line: the type, signature and
    # position code it deletes and tighter memref-layout, scalar-type
    # and attribute branches pay for it.
    "ir": 1994,
    "irdl": 266,
    "mlmodels": 192,
    "observability": 527,
    # -49: every pass that applies patterns declares them, and its
    # conditions are derived; the hand-written walks and condition sets
    # go, save the three ``WRITTEN_CONDITIONS`` entries.
    "passes": 1496,
    "profiling": 144,
    # A pattern roots at a name, a set of names or a dialect, and the
    # conversion driver visits each op once, each attempt under an undo
    # log that names what the pattern inserted and undoes a failure:
    # no insert listener of its own. +3: a pattern names the ops it
    # ``generates``, from which a conversion pass derives its
    # postconditions (passes -39). +30: ``get_or_create``, the uniquer
    # that shares one empty tensor and zero per block among the TOSA
    # lowerings, so ``cse`` no longer deletes what they built (passes
    # -10). +18: the single-walk driver (``walk.py``) that four passes
    # are declared on (passes -49).
    "rewrite": 514,
    # +65: one frame codec (``wire.py``) for the daemon and both
    # clients: IR text crosses as raw body bytes, not JSON strings, and
    # a frame no reader can follow (over-long header, bad body length)
    # is a refusal and a closed connection, never a traceback. +89: the
    # engine forks its own workers and a slot thread talks to one over
    # its pipe (``worker.serve`` frees a job's IR after replying), with
    # no executor threads between; admission is one synchronous method
    # (``ServiceFrontier.admit``) that the daemon's reader calls, so a
    # hit is answered without a task; the package imports its client
    # and server lazily, so ``python -m`` runs one copy of them. A
    # failure costs the one worker that failed: no pool generation.
    # +29: ``worker.collector_paused``, the count of jobs in flight that
    # keeps the cyclic collector off while a job's IR is alive (in
    # ``compile_job`` and around a pool worker's whole call), and its
    # reset in a forked child.
    "service": 2689,
    "service/engine.py": 608,
    "service/frontier.py": 172,
    # +30: the fuzzer checks def-use links, scopes half its rollback
    # cases to a loop whose fallback annotates the restored scope, and
    # finds a replayed probe inlined from a macro. +8: a rollback must
    # keep the payload's op, value and use objects, in order.
    "testing": 1193,
    "transforms": 619,
}

#: file at the repository root -> the most lines it may have; the two
#: together stay within 1 200.
PROSE_BUDGETS = {
    "DESIGN.md": 551,
    "README.md": 649,
}

#: Trees whose names count as callers of a ``src/repro`` definition
#: (beside the ``[project.scripts]`` entry points). Tests do not count.
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: Decorators that register an op, pass or pattern: what they decorate
#: is reached through a registry, never by name.
REGISTRARS = {"register_op", "register_pass", "register_canonicalization"}

#: ``path:qualified name`` of a ``src/repro`` definition nothing but
#: tests names -> why it stays. Delete an entry with its definition;
#: a new entry needs a reason as strong as these.
ALLOWLIST = {
    "core/dialect.py:foreach":
        "builds transform.foreach in tests",
    "dialects/affine.py:min_": "builds affine.min in tests",
    "dialects/linalg.py:fill": "builds linalg.fill in tests",
    "dialects/builtin.py:unrealized_cast":
        "builds builtin.unrealized_conversion_cast in tests",
    "dialects/memref.py:alloc": "builds memref.alloc in tests",
    "dialects/scf.py:if_": "builds scf.if in tests",
    "rewrite/pattern.py:PatternRewriter.replace_op_with":
        "the rewrite patterns of the driver and handle-tracking tests",
    "service/frontier.py:ServiceFrontier.queue_depth":
        "frontier and server tests wait on the queue depth through it",
    "frontend/schedule.py:_Scope.merge":
        "Schedule builder spelling of transform.merge_handles",
    "frontend/schedule.py:_Scope.interchange":
        "Schedule builder spelling of transform.loop.interchange",
    "frontend/schedule.py:_Scope.generalize":
        "Schedule builder spelling of transform.structured.generalize",
    "frontend/schedule.py:_Scope.lower_to_loops":
        "Schedule builder spelling of "
        "transform.structured.lower_to_loops",
    "frontend/schedule.py:Schedule.use_library":
        "Schedule builder entry that links the shipped macro library",
    "analysis/pipeline.py:flatten_pipeline":
        "the flat step list the pipeline-extraction tests compare",
    "autotuning/integration.py:case_study_5_template_problem":
        "the paper's Fig. 9/10 tuning problem over the builder template",
    "core/script_transforms.py:infer_ad_dialects":
        "the paper's Fig. 5 introspection: dialects a script may produce",
    "execution/workloads.py:reference_matmul":
        "the numpy product the execution tests check matmuls against",
    "ir/attributes.py:index_attr": "builds index IntegerAttrs in tests",
    "ir/context.py:Context":
        "MLIR's dialect-loading context, loaded by the IR tests",
    "mlmodels/generators.py:build_mlp_model":
        "the textual MLP the frontend generator is digest-checked against",
    "observability/events.py:read_events":
        "CI's artifact check reads the batch and daemon event logs",
    "transforms/loop.py:fuse_sibling_loops":
        "loop fusion, checked for semantics by the loop-transform tests",
}

#: Why an option no non-test call sets may stay: the only five reasons.
#: A size or bound also says how long its test runs at the default.
DEPLOYMENT = "a deployment setting"
TEST_SEAM = "a test seam, such as a clock or a fault"
BUILDER_OPERAND = "an IR-builder operand that tests build IR with"
TEST_SIZE = "a size or bound that a test shrinks"
HANDLE_LABEL = "a handle label on a Schedule builder step"
REASONS = (DEPLOYMENT, TEST_SEAM, BUILDER_OPERAND, TEST_SIZE, HANDLE_LABEL)

#: ``path:qualified(param)`` of an option (:func:`unset_options`) no
#: non-test call sets -> one of ``REASONS``. Anything else is deleted
#: with the code path its other values select.
UNSET_OPTIONS = {
    "core/dialect.py:match_op(result_type)": BUILDER_OPERAND,
    "core/dialect.py:apply_registered_pass(with_result)": BUILDER_OPERAND,
    "dialects/linalg.py:matmul(result_types)": BUILDER_OPERAND,
    "dialects/linalg.py:fill(result_types)": BUILDER_OPERAND,
    "dialects/scf.py:if_(result_types)": BUILDER_OPERAND,
    "dialects/scf.py:if_(with_else)": BUILDER_OPERAND,
    "execution/interpreter.py:PayloadInterpreter.__init__(max_steps)":
        f"{TEST_SIZE}: the step-budget test exhausts 1 000 steps; at the "
        "default 50 000 000 it runs 119 s",
    "execution/workloads.py:reference_matmul(seed)": TEST_SEAM,
    "frontend/ops.py:reduce_sum(axis)": BUILDER_OPERAND,
    "ir/types.py:vector(element_type)": BUILDER_OPERAND,
    "frontend/schedule.py:_Scope.merge(name)": HANDLE_LABEL,
    "frontend/schedule.py:_Scope.split(names)": HANDLE_LABEL,
    "frontend/schedule.py:_Scope.peel(names)": HANDLE_LABEL,
    "frontend/schedule.py:Schedule.define(n_args)": BUILDER_OPERAND,
    "mlmodels/generators.py:build_mlp_model(seq)": BUILDER_OPERAND,
    "mlmodels/generators.py:build_mlp_model(hidden)": BUILDER_OPERAND,
    "service/cache.py:CompilationCache.clear(disk)": TEST_SEAM,
    "service/resilience.py:PoolHealthMonitor.record_restart(now)":
        TEST_SEAM,
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


def _exports(tree: ast.AST, is_package: bool) -> set:
    """The nodes that only re-export a name: the ``__all__`` strings
    of any module, and a package ``__init__``'s imports."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(ast.walk(node.value))
        elif is_package and isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(node.names)
    return skipped


def _names(tree: ast.AST,
           is_package: bool) -> Iterator[Tuple[str, int, bool]]:
    """Every identifier ``tree`` names, with its line and whether it is
    a bare name: loads and stores (bare), attributes, imports, and
    string constants that are a bare identifier (``getattr`` and
    registry keys). A re-export (:func:`_exports`) is not a use: it
    names nothing a caller runs."""
    skipped = _exports(tree, is_package)
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, False
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno, False


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Top-level functions, classes at any depth of class nesting, and
    public methods — less dunders and registered definitions."""
    def visit(body, owner):
        for node in body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            is_class = isinstance(node, ast.ClassDef)
            decorators = {name.id for decorator in node.decorator_list
                          for name in ast.walk(decorator)
                          if isinstance(name, ast.Name)}
            if not (node.name.startswith("__") and node.name.endswith("__")
                    or owner and not is_class and node.name.startswith("_")
                    or decorators & REGISTRARS):
                yield owner + node.name, node
            if is_class:
                yield from visit(node.body, f"{owner}{node.name}.")
    return visit(tree.body, "")


def unreferenced(sources: Dict[str, str],
                 entry_points: Tuple[str, ...] = ()) -> List[str]:
    """``path:name`` of every definition in a ``src/repro/`` file of
    ``sources`` (path -> text) that no source under ``CALLER_TREES``
    names outside the definition itself, and no entry point names. A
    method or property is named only through an attribute or a
    string: a bare name is a local variable or a parameter."""
    trees = {path: ast.parse(text) for path, text in sources.items()
             if path.split("/", 1)[0] in CALLER_TREES}
    where: Dict[str, List[Tuple[str, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _names(tree, path.endswith("/__init__.py")):
            where.setdefault(name, []).append((path, line, bare))
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/repro/"):
            continue
        for qualified, node in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            method = "." in qualified and not isinstance(node, ast.ClassDef)
            if name in entry_points or any(
                    not (bare and method)
                    and (other != path
                         or not node.lineno <= line <= node.end_lineno)
                    for other, line, bare in where.get(name, ())):
                continue
            found.append(f"{path[len('src/repro/'):]}:{qualified}")
    return found


def _caller_sources() -> Dict[str, str]:
    return {file.relative_to(ROOT).as_posix(): file.read_text()
            for tree in CALLER_TREES
            for file in sorted((ROOT / tree).rglob("*.py"))}


def _entry_points() -> Tuple[str, ...]:
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return tuple(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callee(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _options(tree: ast.Module) -> Iterator[Tuple[str, str, str,
                                                 Optional[int]]]:
    """Every option of a module: ``(qualified(param), the name a call
    uses, param, its positional index past ``self`` or None)`` for each
    parameter with a default of a function, a method or an
    ``__init__`` (called by its class's name). Other dunders, nested
    functions and lambdas have none."""
    def visit(body, owner, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{owner}{node.name}.", node.name)
                continue
            if not isinstance(node, _DEFINITIONS) or (
                    node.name.startswith("__") and node.name.endswith("__")
                    and not (cls and node.name == "__init__")):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            static = any(_callee(d) == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            first = len(positional) - len(args.defaults)
            called = cls if node.name == "__init__" else node.name
            params = [(arg, index - skip) for index, arg
                      in enumerate(positional) if index >= first]
            params += [(arg, None) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            for arg, index in params:
                yield (f"{owner}{node.name}({arg.arg})", called, arg.arg,
                       index)
    return visit(tree.body, "", None)


def _calls(tree: ast.Module, calls: Dict[str, list], values: set,
           inherits: Dict[str, List[str]]) -> None:
    """Add to ``calls`` (name -> ``(positional count, keywords, whether
    */** is passed)`` per call), to ``values`` (the names used as a
    value: not called, annotated, tested by ``isinstance``, caught,
    subclassed or reached through) and to ``inherits`` (class name ->
    its bases, when it inherits ``__init__``). A bare decorator is a
    call with the function alone; ``super().__init__(...)`` calls the
    bases."""
    def shape(call):
        star = any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(keyword.arg is None for keyword in call.keywords)
        return len(call.args), {k.arg for k in call.keywords}, star

    not_values = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            not_values.add(node.func)
            if _callee(node.func) in ("isinstance", "issubclass") \
                    and len(node.args) == 2:
                not_values.update(ast.walk(node.args[1]))
            if _callee(node.func) is not None:
                calls.setdefault(_callee(node.func), []).append(shape(node))
        elif isinstance(node, ast.Attribute):
            not_values.add(node.value)
        elif isinstance(node, (*_DEFINITIONS, ast.ClassDef)):
            for decorator in node.decorator_list:
                not_values.add(decorator)
                if _callee(decorator) is not None:
                    calls.setdefault(_callee(decorator), []).append(
                        (1, set(), False))
            annotations = [node.returns] if isinstance(
                node, _DEFINITIONS) else node.bases
            for annotation in filter(None, annotations):
                not_values.update(ast.walk(annotation))
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            not_values.update(ast.walk(node.annotation))
        elif isinstance(node, ast.ExceptHandler) and node.type:
            not_values.update(ast.walk(node.type))
        if isinstance(node, ast.ClassDef):
            bases = [_callee(base) for base in node.bases]
            if not any(isinstance(item, _DEFINITIONS)
                       and item.name == "__init__" for item in node.body):
                inherits[node.name] = bases
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) \
                        and _callee(sub.func) == "__init__" \
                        and isinstance(sub.func.value, ast.Call) \
                        and _callee(sub.func.value.func) == "super":
                    for base in bases:
                        calls.setdefault(base, []).append(shape(sub))
    values.update(_callee(node) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)
                  and node not in not_values)


def unset_options(sources: Dict[str, str]) -> Tuple[int, List[str]]:
    """The count of options (:func:`_options`) in the ``src/repro/``
    files of ``sources`` (path -> text), and ``path:qualified(param)``
    of each that no call under ``CALLER_TREES`` sets: by keyword, by
    enough positional arguments to reach it, or by ``*``/``**``. A
    function used as a value may be called with anything, and a call of
    a class that inherits ``__init__`` calls its bases'."""
    trees = {path: ast.parse(text) for path, text in sources.items()
             if path.split("/", 1)[0] in CALLER_TREES}
    calls: Dict[str, list] = {}
    values: set = set()
    inherits: Dict[str, List[str]] = {}
    for tree in trees.values():
        _calls(tree, calls, values, inherits)
    for name in inherits:
        ancestors, todo = set(), list(inherits[name])
        while todo:
            base = todo.pop()
            if base not in ancestors:
                ancestors.add(base)
                todo.extend(inherits.get(base, ()))
        for base in ancestors:
            calls.setdefault(base, []).extend(calls.get(name, ()))
            if name in values:
                values.add(base)
    total, found = 0, []
    for path, tree in trees.items():
        if not path.startswith("src/repro/"):
            continue
        for qualified, called, param, index in _options(tree):
            total += 1
            if called in values or any(
                    star or param in keywords
                    or index is not None and count > index
                    for count, keywords, star in calls.get(called, ())):
                continue
            found.append(f"{path[len('src/repro/'):]}:{qualified}")
    return total, found


def prose_lines(name: str) -> int:
    return len((ROOT / name).read_text().splitlines())


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


def test_the_scan_flags_a_definition_only_it_names():
    library = '''
import functools

def called(): pass
def only_recursive(): return only_recursive()
def _private_uncalled(): pass
def by_string(): pass
def entry(): pass
def reexported(): pass
def listed(): pass

@register_op
class RegisteredOp: pass

class Holder:
    def method(self): pass
    def _private(self): pass
    def __repr__(self): return "Holder"
    def unused(self): return self.unused()
    def shadowed(self): pass
'''
    # A local variable or parameter of a method's name calls nothing.
    caller = '''
from repro.lib import called, Holder
Holder().method()
name = f"{getattr(Holder, 'by_string')}"
def use(shadowed):
    return shadowed
'''
    # A re-export names a definition without calling it.
    package = '''
from .lib import reexported
__all__ = ["reexported", "listed"]
'''
    assert unreferenced({"src/repro/lib.py": library,
                         "src/repro/__init__.py": package,
                         "examples/use.py": caller,
                         "tests/test_lib.py": "only_recursive()"},
                        entry_points=("entry",)) == [
        "lib.py:only_recursive", "lib.py:_private_uncalled",
        "lib.py:reexported", "lib.py:listed", "lib.py:Holder.unused",
        "lib.py:Holder.shadowed"]


def test_every_definition_has_a_non_test_caller():
    found = unreferenced(_caller_sources(), _entry_points())
    unlisted = sorted(set(found) - set(ALLOWLIST))
    assert not unlisted, (
        f"definitions only tests name (delete them, or allowlist one "
        f"with a reason): {unlisted}")
    stale = sorted(set(ALLOWLIST) - set(found))
    assert not stale, f"allowlisted but now called or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_scan_flags_an_option_no_call_sets():
    library = '''
def by_keyword(a, flag=False): pass
def by_position(a, flag=False): pass
def too_few(a, flag=False): pass
def by_star(a, flag=False): pass
def by_value(a, flag=False): pass
def decorator(fn, flag=False): return fn
def only_tests(flag=False): pass
def annotation(flag=False):
    def nested(inner=1): pass
    return lambda x=1: x

class Base:
    def __init__(self, size=1): pass
    def method(self, a, flag=False): pass
    def __call__(self, flag=False): pass
    @staticmethod
    def static(a, flag=False): pass

class Inherits(Base):
    pass

class Grand(Inherits):
    pass

class Other:
    def __init__(self, depth=1): pass

class Forwards(Other):
    def __init__(self, **options):
        super().__init__(**options)

class Checked:
    def __init__(self, flag=False): pass
'''
    # ``self`` is no positional argument of a method call, and is one of
    # a static method's; an annotation or an ``isinstance`` test passes
    # nothing.
    caller = '''
from repro.lib import *
by_keyword(1, flag=True)
by_position(1, True)
too_few(1)
by_star(*args)
pool.submit(by_value, 1)
@decorator
def decorated(): pass
def f(x: annotation):
    return isinstance(x, Checked) and Checked()
Grand(size=2)
Base().method(1, True)
Base.static(1)
Forwards()
'''
    assert unset_options({"src/repro/lib.py": library,
                          "examples/use.py": caller,
                          "tests/test_lib.py": "only_tests(flag=True)"}) \
        == (13, ["lib.py:too_few(flag)", "lib.py:decorator(flag)",
                 "lib.py:only_tests(flag)", "lib.py:annotation(flag)",
                 "lib.py:Base.static(flag)",
                 "lib.py:Checked.__init__(flag)"])


def test_every_option_has_a_non_test_caller():
    _total, found = unset_options(_caller_sources())
    unlisted = sorted(set(found) - set(UNSET_OPTIONS))
    assert not unlisted, (
        f"options no non-test call sets (make each a constant and delete "
        f"what its other values select, or list it with one of "
        f"REASONS): {unlisted}")
    stale = sorted(set(UNSET_OPTIONS) - set(found))
    assert not stale, f"listed but now set or gone: {stale}"
    for option, reason in UNSET_OPTIONS.items():
        assert reason in REASONS or reason.startswith(f"{TEST_SIZE}: ") \
            and re.search(r"\d s\b", reason), (option, reason)
    # Lower this with each entry that goes; it never rises.
    assert len(UNSET_OPTIONS) <= 18


def test_prose_fits_its_budget():
    assert sum(PROSE_BUDGETS.values()) <= 1200
    over = {name: prose_lines(name) for name in PROSE_BUDGETS}
    over = {name: lines for name, lines in over.items()
            if lines > PROSE_BUDGETS[name]}
    assert not over, f"over budget (lines): {over} > {PROSE_BUDGETS}"


if __name__ == "__main__":
    for name in sys.argv[1:]:
        print(f"{count(Path(name))}\t{name}")
    for name in PROSE_BUDGETS:
        print(f"{prose_lines(name)}\t{name} lines")
    print(f"{len(ALLOWLIST)}\tALLOWLIST entries")
    options, _unset = unset_options(_caller_sources())
    print(f"{options}\toptions (parameters with defaults)")
    print(f"{len(UNSET_OPTIONS)}\tUNSET_OPTIONS entries")
