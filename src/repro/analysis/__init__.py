"""Static analysis of transform scripts (paper §3.3/§3.4).

Transform IR is ordinary IR, so script bugs are caught *statically*,
before any payload exists:

* :mod:`repro.analysis.dataflow` — a small forward dataflow engine
  walking scripts in execution order with per-region fact snapshots;
* :mod:`repro.analysis.invalidation` — alternatives-aware
  use-after-consume ("use after free" over handles);
* :mod:`repro.analysis.pipeline` — execution-ordered pipeline
  extraction and the §3.3 pre/postcondition check, branch-aware;
* :mod:`repro.analysis.lint` — the ``repro-lint`` driver tying it all
  into one MLIR-style diagnostic stream.

A macro is a function: both analyses read the script with every
``transform.include`` expanded by the ordinary inliner
(:func:`~repro.core.script_transforms.inlined_script`), so a macro is
analyzed where it is included and its ops are located
``callsite(<op in the macro> at <include>)``. There are no per-macro
summaries.

What an op consumes, derives and how it can fail is declared on its
class in :mod:`repro.core.dialect`; the analyses read it off the op.

The dynamic counterpart lives in the interpreter
(:class:`~repro.core.state.TransformState` invalidation tracking); the
fuzzer (``python -m repro.testing.fuzz``) asserts on every case that
the two agree: every dynamic invalidation error is predicted
statically, and no definite static error fires on a schedule that
executes cleanly.
"""

from ..core.interpreter import find_entry, top_level_ops
from .dataflow import AbstractState, ForwardAnalysis, ForwardEngine, Reach
from .invalidation import (
    ERROR,
    WARNING,
    Consumption,
    HandleState,
    InvalidationAnalysis,
    InvalidationIssue,
    analyze_script,
)
from .lint import emit_invalidation_diagnostics, lint_script
from .pipeline import (
    IssueKind,
    PipelineBranch,
    PipelineIssue,
    PipelineReport,
    check_pipeline,
    check_transform_script,
    extract_pipeline_tree,
    flatten_pipeline,
)

__all__ = [
    "AbstractState",
    "Consumption",
    "ERROR",
    "ForwardAnalysis",
    "ForwardEngine",
    "HandleState",
    "InvalidationAnalysis",
    "InvalidationIssue",
    "IssueKind",
    "PipelineBranch",
    "PipelineIssue",
    "PipelineReport",
    "Reach",
    "WARNING",
    "analyze_script",
    "check_pipeline",
    "check_transform_script",
    "emit_invalidation_diagnostics",
    "extract_pipeline_tree",
    "find_entry",
    "flatten_pipeline",
    "lint_script",
    "top_level_ops",
]
