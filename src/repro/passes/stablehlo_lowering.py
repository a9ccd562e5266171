"""StableHLO -> arith lowering (the Fig. 5 abstraction ladder).

A one-to-one conversion of elementwise StableHLO ops to their arith
counterparts operating on tensors; together with ``convert-arith-to-llvm``
it forms the stablehlo -> arith -> llvm progression along which the AD
transform must pick the right kind of "add" (§3.4, Fig. 5).
"""

from __future__ import annotations

from ..ir.core import Operation
from ..rewrite.conversion import ConversionTarget, apply_conversion
from ..rewrite.pattern import pattern
from .manager import Pass, register_pass

_HLO_TO_ARITH = {
    "stablehlo.add": "arith.addf",
    "stablehlo.subtract": "arith.subf",
    "stablehlo.multiply": "arith.mulf",
    "stablehlo.divide": "arith.divf",
    "stablehlo.maximum": "arith.maximumf",
    "stablehlo.minimum": "arith.minimumf",
    "stablehlo.constant": "arith.constant",
    "stablehlo.convert": "arith.extf",
}


@register_pass
class ConvertStablehloToArithPass(Pass):
    NAME = "convert-stablehlo-to-arith"
    DESCRIPTION = "lower elementwise StableHLO ops to arith on tensors"
    PRECONDITIONS = {"stablehlo.add", "stablehlo.subtract",
                     "stablehlo.multiply", "stablehlo.divide",
                     "stablehlo.maximum", "stablehlo.minimum",
                     "stablehlo.constant",
                     "stablehlo.convert"}
    POSTCONDITIONS = {"arith.addf", "arith.subf", "arith.mulf",
                      "arith.divf", "arith.maximumf", "arith.minimumf",
                      "arith.constant", "arith.extf"}

    def run(self, op: Operation) -> None:
        target = ConversionTarget()
        target.add_illegal_op(*_HLO_TO_ARITH)
        target.add_legal_dialect("arith")

        @pattern(frozenset(_HLO_TO_ARITH), label="stablehlo-to-arith")
        def convert(candidate: Operation, rewriter) -> bool:
            arith_name = _HLO_TO_ARITH[candidate.name]
            attributes = dict(candidate.attributes)
            if candidate.name == "stablehlo.constant":
                attributes.setdefault("value", 0)
            new_op = rewriter.create(
                arith_name,
                operands=list(candidate.operands),
                result_types=[r.type for r in candidate.results],
                attributes=attributes,
            )
            rewriter.replace_op(candidate, new_op.results)
            return True

        apply_conversion(op, [convert], target)
