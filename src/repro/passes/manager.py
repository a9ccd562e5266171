"""The pass manager: registration, pipelines, timing.

Passes are registered by name in :data:`PASS_REGISTRY` and assembled
into pipelines either programmatically or from the textual form used on
MLIR's command line (``pass-a,pass-b``). Given a profiler, the manager
records per-pass wall-clock timing into it — the measurement instrument
for the Table-1 compile-time study. A pass that applies patterns is a
declaration: its patterns (and, for a :class:`ConversionPass`, its
target) say what it consumes and produces, and its conditions are
derived from them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Type as PyType, Union

from ..ir.core import Operation
from ..rewrite.conversion import (ConversionTarget, TypeConverter,
                                  apply_conversion)
from ..rewrite.pattern import RewritePattern
from ..rewrite.walk import walk_and_apply_patterns

#: Global pass registry: name -> pass class.
PASS_REGISTRY: Dict[str, PyType["Pass"]] = {}


def register_pass(cls: PyType["Pass"]) -> PyType["Pass"]:
    """Class decorator registering a pass under its ``NAME``."""
    if not getattr(cls, "NAME", ""):
        raise ValueError(f"{cls.__name__} lacks a NAME")
    PASS_REGISTRY[cls.NAME] = cls
    return cls


#: Pass name -> why its conditions say more than its patterns' roots
#: and ``generates`` can. A written precondition replaces the derived
#: one; a written postcondition adds to it. No other pass writes a set,
#: and the dict may only shrink.
WRITTEN_CONDITIONS = {
    "expand-strided-metadata":
        "the trivial subviews it keeps satisfy Fig. 3's "
        "memref.subview.constr, which no generated name says",
    "finalize-memref-to-llvm":
        "it converts a subview only where Fig. 3's memref.subview.constr "
        "holds, which no root name says",
    "tosa-make-broadcastable":
        "it rewrites its roots' operands and keeps the roots, so it "
        "consumes nothing",
}


def pattern_roots(patterns: Sequence[RewritePattern]) -> Set[str]:
    """The op names and ``dialect.*`` specs ``patterns`` root at."""
    return {name for pat in patterns for name in (
        (pat.root_name,) if isinstance(pat.root_name, str)
        else pat.root_name)}


class Pass:
    """Base class of all passes. Subclasses mutate the op in ``run``.

    A pass that applies patterns declares them in ``PATTERNS``, and its
    ``PRECONDITIONS`` / ``POSTCONDITIONS`` are derived from them when
    the class is created (:meth:`derive_conditions`); only a pass named
    in :data:`WRITTEN_CONDITIONS` writes either set.
    """

    NAME: str = ""
    #: One-line summary shown in ``--help``-style listings.
    DESCRIPTION: str = ""
    #: The patterns the pass applies.
    PATTERNS: Sequence[RewritePattern] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        written = {key: vars(cls)[key] for key in
                   ("PRECONDITIONS", "POSTCONDITIONS") if key in vars(cls)}
        if written and cls.NAME not in WRITTEN_CONDITIONS:
            raise TypeError(f"{cls.__name__} writes {sorted(written)}; a "
                            "pass derives its conditions from its PATTERNS")
        if cls.PATTERNS:
            pre, post = cls.derive_conditions()
            cls.PRECONDITIONS = frozenset(written.get("PRECONDITIONS", pre))
            cls.POSTCONDITIONS = frozenset(
                {*post, *written.get("POSTCONDITIONS", ())})

    @classmethod
    def derive_conditions(cls):
        """A pattern pass consumes its patterns' roots and produces
        what they generate."""
        return (pattern_roots(cls.PATTERNS),
                {name for pat in cls.PATTERNS for name in pat.generates})

    def __init__(self, **options) -> None:
        self.options = options

    def run(self, op: Operation) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.NAME}>"


class WalkPass(Pass):
    """A pass that is one walk of its patterns
    (:func:`~repro.rewrite.walk.walk_and_apply_patterns`).

    One walk is the fixpoint only when no pattern creates an op one of
    them roots at, so a subclass whose patterns generate one of their
    own roots is refused.
    """

    @classmethod
    def derive_conditions(cls):
        roots, generated = super().derive_conditions()
        own = sorted(name for name in generated
                     if any(pat.roots_at(name) for pat in cls.PATTERNS))
        if own:
            raise TypeError(f"{cls.__name__}'s patterns generate {own}, "
                            "which they root at; one walk would not "
                            "reach their fixpoint")
        return roots, generated

    def run(self, op: Operation) -> None:
        walk_and_apply_patterns(op, self.PATTERNS)


class ConversionPass(Pass):
    """A pass that is one dialect conversion, declared, not coded.

    ``PATTERNS``, ``TARGET`` and ``CONVERTER`` are the only statement
    of what it consumes and produces. Its ``PRECONDITIONS`` are the ops
    and ``dialect.*`` specs the target makes illegal; its
    ``POSTCONDITIONS`` are what its patterns generate that the target
    keeps, plus the unrealized cast a converter materializes.
    """

    TARGET: ConversionTarget
    CONVERTER: Optional[TypeConverter] = None

    @classmethod
    def derive_conditions(cls):
        target = cls.TARGET
        illegal = {*target.illegal_ops,
                   *(f"{dialect}.*" for dialect in target.illegal_dialects)}
        generated = {name for pat in cls.PATTERNS for name in pat.generates
                     if name not in target.illegal_ops
                     and name.split(".", 1)[0] not in target.illegal_dialects}
        if cls.CONVERTER is not None:
            generated.add("builtin.unrealized_conversion_cast")
        return illegal, generated

    def run(self, op: Operation) -> None:
        apply_conversion(op, self.PATTERNS, self.TARGET, self.CONVERTER)


class PassManager:
    """Runs a sequence of passes over a module."""

    def __init__(self, passes: Sequence[Union[str, Pass]] = (),
                 verify_each: bool = False):
        self.passes: List[Pass] = []
        self.verify_each = verify_each
        for entry in passes:
            self.add(entry)

    def add(self, entry: Union[str, Pass], **options) -> "PassManager":
        """Append a pass (by instance or registered name)."""
        if isinstance(entry, Pass):
            self.passes.append(entry)
            return self
        cls = PASS_REGISTRY.get(entry)
        if cls is None:
            raise ValueError(f"unknown pass: {entry!r}")
        self.passes.append(cls(**options))
        return self

    def run(self, module: Operation, profiler=None) -> None:
        """Run the pipeline. ``profiler`` (a
        :class:`repro.profiling.Profiler`) records each pass's wall time
        in ``profiler.passes``."""
        for pass_ in self.passes:
            # Expose the profiler to passes that instrument their own
            # internals (e.g. canonicalize's greedy driver), unless the
            # pass was constructed with an explicit one.
            lent_profiler = (
                profiler is not None and "profiler" not in pass_.options
            )
            if lent_profiler:
                pass_.options["profiler"] = profiler
            start = time.perf_counter() if profiler is not None else 0.0
            try:
                pass_.run(module)
            finally:
                if lent_profiler:
                    del pass_.options["profiler"]
            if profiler is not None:
                profiler.record_pass(pass_.NAME, time.perf_counter() - start)
            if self.verify_each:
                module.verify()


def parse_pipeline(text: str) -> PassManager:
    """Parse ``"pass-a,pass-b(opt=1)"`` into a PassManager."""
    manager = PassManager()
    for chunk in _split_pipeline(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        options: Dict[str, object] = {}
        name = chunk
        if "(" in chunk:
            name, _, option_text = chunk.partition("(")
            option_text = option_text.rstrip(")")
            for pair in option_text.split(","):
                if not pair.strip():
                    continue
                key, _, raw = pair.partition("=")
                value: object = raw.strip()
                if isinstance(value, str) and value.isdigit():
                    value = int(value)
                options[key.strip()] = value
        manager.add(name, **options)
    return manager


def _split_pipeline(text: str) -> List[str]:
    """Split on commas not nested in parentheses."""
    chunks: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            chunks.append(current)
            current = ""
        else:
            current += char
    if current:
        chunks.append(current)
    return chunks
