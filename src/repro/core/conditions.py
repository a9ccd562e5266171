"""Pre-/post-condition specs for transforms (paper §3.3).

A *spec* names a set of payload operations:

* an exact op name: ``"scf.for"``;
* a dialect wildcard: ``"scf.*"``;
* an IRDL-constrained pseudo-op: ``"memref.subview.constr"`` (Fig. 3) —
  matches ``memref.subview`` ops satisfying the registered IRDL
  constraints;
* the alias ``"cast"`` for ``builtin.unrealized_conversion_cast``.

Conditions of lowering passes live on the pass classes
(``PRECONDITIONS`` / ``POSTCONDITIONS``, derived from their patterns);
:func:`conditions_of` resolves them for a transform operation, and
:func:`pass_conditions` for a pass name, through one path, so the
static checker (§4.2) and the dynamic checker can consume one uniform
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from ..ir.core import Operation

CAST_ALIAS = "cast"
CAST_OP = "builtin.unrealized_conversion_cast"


def normalize_spec(spec: str) -> str:
    return CAST_OP if spec == CAST_ALIAS else spec


def spec_dialect(spec: str) -> str:
    return spec.split(".", 1)[0]


def spec_matches_name(spec: str, op_name: str) -> bool:
    """Does ``spec`` cover the payload op named ``op_name``?

    Constrained specs (``x.constr``) match their base op name; whether
    the *constraints* hold is a dynamic question (see
    :mod:`repro.core.dynamic_checks`).
    """
    spec = normalize_spec(spec)
    op_name = normalize_spec(op_name)
    if spec.endswith(".*"):
        return op_name.startswith(spec[:-1])
    if spec.endswith(".constr"):
        return op_name == spec[: -len(".constr")] or op_name == spec
    return spec == op_name


def spec_subsumes(consumer: str, produced: str) -> bool:
    """Does the ``consumer`` spec cover everything ``produced`` names?

    Used by the abstract pipeline interpretation: a produced spec is
    *removed* by a pass whose precondition subsumes it.
    """
    consumer = normalize_spec(consumer)
    produced = normalize_spec(produced)
    if consumer == produced:
        return True
    if consumer.endswith(".*"):
        return produced.startswith(consumer[:-1]) or (
            spec_dialect(produced) == spec_dialect(consumer)
        )
    if produced.endswith(".constr"):
        return consumer == produced[: -len(".constr")]
    return False


@dataclass(frozen=True)
class TransformConditions:
    """Resolved pre-/post-conditions of one transform."""

    name: str
    preconditions: FrozenSet[str]
    postconditions: FrozenSet[str]

    def removes(self, present: Set[str]) -> Set[str]:
        """Specs of ``present`` that this transform consumes/removes."""
        return {
            spec
            for spec in present
            if any(spec_subsumes(pre, spec) for pre in self.preconditions)
        }


def conditions_of(transform_op: Operation) -> Optional[TransformConditions]:
    """Resolve the conditions a transform op declares.

    ``transform.apply_registered_pass`` pulls conditions from the pass
    class; other transform ops use their own class-level declarations.
    """
    if transform_op.name == "transform.apply_registered_pass":
        return pass_conditions(
            getattr(transform_op.attr("pass_name"), "value", ""))
    return _declared(transform_op.name, type(transform_op))


def pass_conditions(pass_name: str) -> Optional[TransformConditions]:
    """Conditions of a registered pass, by name."""
    from ..passes.manager import PASS_REGISTRY

    return _declared(pass_name, PASS_REGISTRY.get(pass_name))


def _declared(name: str, cls: object) -> Optional[TransformConditions]:
    """The sets ``cls`` declares, or None when it declares nothing: it
    has neither set, or two empty ones (treated as unknown)."""
    pre = getattr(cls, "PRECONDITIONS", None) or ()
    post = getattr(cls, "POSTCONDITIONS", None) or ()
    if not pre and not post:
        return None
    return TransformConditions(name,
                               frozenset(map(normalize_spec, pre)),
                               frozenset(map(normalize_spec, post)))


def payload_op_specs(payload: Operation) -> Set[str]:
    """The op-name set of a payload module (the initial abstract state)."""
    return {op.name for op in payload.walk() if op is not payload}
