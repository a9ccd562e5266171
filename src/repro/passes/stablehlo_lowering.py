"""StableHLO -> arith lowering (the Fig. 5 abstraction ladder).

A one-to-one conversion of elementwise StableHLO ops to their arith
counterparts operating on tensors; together with ``convert-arith-to-llvm``
it forms the stablehlo -> arith -> llvm progression along which the AD
transform must pick the right kind of "add" (§3.4, Fig. 5).
"""

from __future__ import annotations

from ..ir.core import Operation
from ..rewrite.conversion import ConversionTarget
from ..rewrite.pattern import pattern
from .manager import ConversionPass, register_pass

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


@pattern(frozenset(_HLO_TO_ARITH), label="stablehlo-to-arith",
         generates=set(_HLO_TO_ARITH.values()))
def convert_hlo(candidate: Operation, rewriter) -> bool:
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


@register_pass
class ConvertStablehloToArithPass(ConversionPass):
    NAME = "convert-stablehlo-to-arith"
    DESCRIPTION = "lower elementwise StableHLO ops to arith on tensors"
    PATTERNS = (convert_hlo,)
    TARGET = (ConversionTarget().add_illegal_op(*_HLO_TO_ARITH)
              .add_legal_dialect("arith"))
