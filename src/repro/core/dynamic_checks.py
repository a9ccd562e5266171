"""Dynamic pre-/post-condition checking (paper §3.3).

Static checks cannot establish that declared conditions accurately
describe the transformation *implementations* — so the interpreter can
additionally verify them while transforming a concrete program:

* after every checked transform, newly introduced payload op kinds must
  be covered by the declared postconditions;
* payload ops matching an IRDL-constrained spec (e.g.
  ``memref.subview.constr``) are verified with the *generated* IRDL
  constraint verifier — after ``expand-strided-metadata`` every
  remaining subview must really be trivial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from ..ir.core import Operation
from ..irdl.library import lookup_def
from ..irdl.defs import verify_op
from .conditions import conditions_of, spec_matches_name
from .errors import TransformResult
from .interpreter import TransformInterpreter
from .state import TransformState


@dataclass
class ConditionViolation:
    """A dynamic condition-check failure."""

    transform_name: str
    message: str

    def __str__(self) -> str:
        return f"{self.transform_name}: {self.message}"


class DynamicConditionChecker(TransformInterpreter):
    """An interpreter that verifies conditions as it executes.

    Violations are collected in :attr:`violations`; a violation does
    not stop interpretation. Options, ``strict=`` included, are the
    interpreter's.
    """

    def __init__(self, **options):
        super().__init__(**options)
        self.violations: List[ConditionViolation] = []

    def execute(self, op: Operation,
                state: TransformState) -> TransformResult:
        conditions = conditions_of(op)
        before: Optional[Counter] = None
        if conditions is not None:
            before = Counter(
                payload_op.name
                for payload_op in state.payload_root.walk()
            )
        result = super().execute(op, state)
        if conditions is None or before is None or not result.succeeded:
            return result

        after = Counter(
            payload_op.name for payload_op in state.payload_root.walk()
        )
        introduced = {
            name for name in after
            if after[name] > before.get(name, 0)
        }
        for name in sorted(introduced):
            if not any(
                spec_matches_name(post, name)
                for post in conditions.postconditions
            ):
                self._report(
                    op, conditions.name,
                    f"introduced '{name}' which is not covered by the "
                    f"declared postconditions "
                    f"{sorted(conditions.postconditions)}",
                )

        # IRDL-constrained postconditions: run the generated verifier on
        # every payload op the constrained spec names.
        for post in conditions.postconditions:
            if not post.endswith(".constr"):
                continue
            definition = lookup_def(post)
            if definition is None:
                continue
            base_name = post[: -len(".constr")]
            for payload_op in state.payload_root.walk():
                if payload_op.name != base_name:
                    continue
                for violation in verify_op(payload_op, definition):
                    self._report(
                        op, conditions.name,
                        f"IRDL constraint violated: {violation}",
                    )
        return result

    def _report(self, op: Operation, name: str, message: str) -> None:
        self.violations.append(ConditionViolation(name, message))
