"""Static pipeline checking (paper §3.3, case study 2).

Abstractly interprets a pipeline over the *set of op specs* present in
the payload: each transform removes the specs its preconditions
subsume and adds its postconditions. The checker reports:

* **leftover** specs after the pipeline that the final target does not
  allow — e.g. the ``affine.apply`` leaked by
  ``expand-strided-metadata`` which no later pass removes (the exact
  bug of case study 2);
* **phase-ordering violations**: a transform whose preconditions
  cannot match anything at its position (e.g. a loop transform on
  ``scf.for`` scheduled after ``convert-scf-to-cf``).

Pipeline *extraction* rides on the forward dataflow engine
(:mod:`repro.analysis.dataflow`) over the script with its macros
inlined, so steps appear in **execution order**: an included macro's
steps sit at the call site, never-included ``named_sequence`` bodies
contribute nothing, and ``transform.alternatives`` regions become
:class:`PipelineBranch` nodes whose outcomes join as a union — each
region is checked as its own branch, not as one sequential pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Union

from ..ir.core import Operation

if TYPE_CHECKING:  # real import is deferred: repro.core imports us
    from ..core.conditions import TransformConditions
from ..core.interpreter import find_entry, top_level_ops
from ..core.script_transforms import inlined_script
from .dataflow import AbstractState, ForwardAnalysis, ForwardEngine


class IssueKind(enum.Enum):
    LEFTOVER = "leftover"
    PHASE_ORDERING = "phase-ordering"
    UNKNOWN_CONDITIONS = "unknown-conditions"


@dataclass
class PipelineIssue:
    kind: IssueKind
    message: str
    position: Optional[int] = None
    transform_name: str = ""

    def __str__(self) -> str:
        where = (
            f" (step {self.position + 1}: {self.transform_name})"
            if self.position is not None
            else ""
        )
        return f"[{self.kind.value}]{where} {self.message}"


@dataclass
class PipelineReport:
    """Result of statically checking a pipeline."""

    issues: List[PipelineIssue] = field(default_factory=list)
    final_specs: Set[str] = field(default_factory=set)
    #: Per-step (name, removed, added) trace for debugging/reporting.
    trace: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(
            issue.kind in (IssueKind.LEFTOVER, IssueKind.PHASE_ORDERING)
            for issue in self.issues
        )

    def leftovers(self) -> List[PipelineIssue]:
        return [i for i in self.issues if i.kind is IssueKind.LEFTOVER]

    def render(self) -> str:
        lines = ["=== static pipeline check ==="]
        for name, removed, added in self.trace:
            lines.append(
                f"  {name}: -{sorted(removed) or '{}'} "
                f"+{sorted(added) or '{}'}"
            )
        lines.append(f"  final: {sorted(self.final_specs)}")
        for issue in self.issues:
            lines.append(f"  {issue}")
        lines.append("  OK" if self.ok else "  FAILED")
        return "\n".join(lines)


StepLike = Union[str, "TransformConditions"]


@dataclass
class PipelineBranch:
    """Alternative sub-pipelines: exactly one region executes."""

    regions: List[List["PipelineStep"]]


PipelineStep = Union[StepLike, PipelineBranch]


# -- extraction ---------------------------------------------------------------


class _StepsState(AbstractState):
    def __init__(self) -> None:
        super().__init__()
        self.steps: List[PipelineStep] = []

    def copy(self) -> "_StepsState":
        other = _StepsState()
        self._copy_base_into(other)
        other.steps = list(self.steps)
        return other


class PipelineExtraction(ForwardAnalysis):
    """Engine client collecting checkable steps in execution order."""

    def make_state(self) -> _StepsState:
        return _StepsState()

    def before_regions(self, op: Operation, state: AbstractState,
                       recoverable: bool) -> None:
        assert isinstance(state, _StepsState)
        if op.name == "transform.apply_registered_pass":
            pass_name_attr = op.attr("pass_name")
            state.steps.append(getattr(pass_name_attr, "value", ""))
        elif op.name.startswith("transform."):
            from ..core.conditions import conditions_of

            conditions = conditions_of(op)
            if conditions is not None:
                state.steps.append(conditions)

    def join_alternatives(self, op, state, exits) -> None:
        assert isinstance(state, _StepsState)
        base = len(state.steps)
        regions: List[List[PipelineStep]] = []
        for _index, exit_state in exits:
            regions.append(
                [] if exit_state is None else exit_state.steps[base:]
            )
        state.steps.append(PipelineBranch(regions))

    def join_foreach(self, op, state, exit_state) -> None:
        assert isinstance(state, _StepsState)
        if exit_state is not None:
            # One body traversal stands in for every iteration.
            state.steps = exit_state.steps


def extract_pipeline_tree(script: Operation,
                          entry_point: Optional[str] = None
                          ) -> List[PipelineStep]:
    """Collect checkable steps in execution order, as a branch tree.

    Reads the script with its macros inlined and starts from the op
    the interpreter would execute, so an included macro's steps appear
    at each call site and bodies of never-included named sequences
    contribute nothing.
    """
    script = inlined_script(script)
    analysis = PipelineExtraction()
    engine = ForwardEngine(analysis)
    entry = find_entry(script, entry_point)
    if entry is not None:
        state = engine.run_entry(entry)
        assert isinstance(state, _StepsState)
        return state.steps
    # No entry point (a bare module of transforms): walk what is there.
    state = analysis.make_state()
    for op in top_level_ops(script):
        engine.run_op(op, state, recoverable=False)
    return state.steps


def flatten_pipeline(steps: Iterable[PipelineStep]) -> List[StepLike]:
    """Branch tree -> flat list (regions concatenated in order)."""
    out: List[StepLike] = []
    for step in steps:
        if isinstance(step, PipelineBranch):
            for region in step.regions:
                out.extend(flatten_pipeline(region))
        else:
            out.append(step)
    return out


# -- checking -----------------------------------------------------------------


class _SpecInterpreter:
    """Abstractly interprets steps over the set of present op specs."""

    def __init__(self, report: PipelineReport):
        self.report = report
        self.position = 0

    def run(self, steps: Sequence[PipelineStep],
            present: Set[str]) -> Set[str]:
        for step in steps:
            if isinstance(step, PipelineBranch):
                outcomes = [
                    self.run(region, set(present))
                    for region in step.regions
                ]
                # Exactly one region executes; the union of outcomes
                # over-approximates what may be present afterwards.
                if outcomes:
                    present = set().union(*outcomes)
                continue
            present = self._apply(step, present)
        return present

    def _apply(self, step: StepLike, present: Set[str]) -> Set[str]:
        from ..core.conditions import TransformConditions, pass_conditions

        position = self.position
        self.position += 1
        conditions = (
            step if isinstance(step, TransformConditions)
            else pass_conditions(step)
        )
        if conditions is None:
            name = step if isinstance(step, str) else "<unknown>"
            self.report.issues.append(
                PipelineIssue(
                    IssueKind.UNKNOWN_CONDITIONS,
                    f"no declared conditions for {name!r}; treating as "
                    "identity",
                    position,
                    str(name),
                )
            )
            self.report.trace.append((name, set(), set()))
            return present
        removed = conditions.removes(present)
        if not removed and conditions.preconditions:
            self.report.issues.append(
                PipelineIssue(
                    IssueKind.PHASE_ORDERING,
                    f"preconditions {sorted(conditions.preconditions)} "
                    "match nothing at this point — the transform is dead "
                    "or mis-ordered",
                    position,
                    conditions.name,
                )
            )
        present = (present - removed) | set(conditions.postconditions)
        self.report.trace.append((conditions.name, removed,
                                  set(conditions.postconditions)))
        return present


def check_pipeline(
    steps: Sequence[PipelineStep],
    input_specs: Iterable[str],
    final_allowed: Iterable[str] = ("llvm.*",),
) -> PipelineReport:
    """Statically check a pipeline of pass names / condition objects.

    ``input_specs`` is the set of op names initially present;
    ``final_allowed`` the specs permitted after the pipeline. Steps may
    include :class:`PipelineBranch` nodes (alternatives regions), whose
    regions are checked independently and joined as a union.
    """
    from ..core.conditions import spec_subsumes

    report = PipelineReport()
    allowed = list(final_allowed)
    present = _SpecInterpreter(report).run(steps, set(input_specs))
    report.final_specs = set(present)
    leftover = {
        spec
        for spec in present
        if not any(spec_subsumes(allow, spec) for allow in allowed)
    }
    for spec in sorted(leftover):
        producer = _find_producer(report.trace, spec)
        suffix = f" (introduced by {producer})" if producer else ""
        report.issues.append(
            PipelineIssue(
                IssueKind.LEFTOVER,
                f"operation '{spec}' remains after the pipeline but the "
                f"final target only allows {sorted(allowed)}{suffix}",
            )
        )
    return report


def _find_producer(trace: List[tuple], spec: str) -> Optional[str]:
    from ..core.conditions import spec_subsumes

    producer = None
    for name, _removed, added in trace:
        if any(spec_subsumes(a, spec) or a == spec for a in added):
            producer = name
    return producer


def check_transform_script(
    script: Operation,
    input_specs: Iterable[str],
    final_allowed: Iterable[str] = ("llvm.*",),
    entry_point: Optional[str] = None,
) -> PipelineReport:
    """Statically check the pipeline embedded in a transform script,
    branch-aware: alternatives regions are checked as alternatives."""
    return check_pipeline(
        extract_pipeline_tree(script, entry_point),
        input_specs,
        final_allowed,
    )


__all__ = [
    "IssueKind",
    "PipelineBranch",
    "PipelineIssue",
    "PipelineReport",
    "PipelineStep",
    "StepLike",
    "check_pipeline",
    "check_transform_script",
    "extract_pipeline_tree",
    "flatten_pipeline",
]
