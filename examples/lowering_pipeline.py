#!/usr/bin/env python
"""Case study 2: building robust lowering pipelines with conditions.

Reproduces §4.2: a seven-pass pipeline lowers a subview+forall function
to the LLVM dialect. It works — until the subview offset becomes a
function argument, at which point ``expand-strided-metadata`` silently
introduces an ``affine.apply`` that no later pass removes, and the
pipeline dies with MLIR's infamous unrealized-cast error. The static
pre-/post-condition checker predicts the failure without running
anything; adding ``lower-affine`` (+ a second arith lowering) fixes it.

Run:  python examples/lowering_pipeline.py
"""

from repro.analysis import check_pipeline
from repro.core import payload_op_specs
from repro.dialects import arith, builtin, func, memref as md, scf
from repro.ir import Builder, F32, INDEX
from repro.ir.types import memref
from repro.passes import PassManager
from repro.rewrite.conversion import ConversionError

BROKEN_PIPELINE = [
    "convert-scf-to-cf",
    "convert-arith-to-llvm",
    "convert-cf-to-llvm",
    "convert-func-to-llvm",
    "expand-strided-metadata",
    "finalize-memref-to-llvm",
    "reconcile-unrealized-casts",
]
FIXED_PIPELINE = (
    BROKEN_PIPELINE[:5]
    + ["lower-affine", "convert-arith-to-llvm"]
    + BROKEN_PIPELINE[5:]
)


def build_payload(dynamic_offset: bool):
    """The §4.2 function: a 4x4 view written with 42 by an scf.forall."""
    module = builtin.module()
    arg_types = [memref(64, 64)] + ([INDEX] if dynamic_offset else [])
    f = func.func("view", arg_types)
    module.body.append(f)
    builder = Builder.at_end(f.body)
    offset = f.body.args[1] if dynamic_offset else 0
    view = md.subview(builder, f.body.args[0], [offset, 0], [4, 4],
                      [1, 1])
    c4 = arith.index_constant(builder, 4)
    forall = scf.forall(builder, [c4, c4])
    body = Builder.at_end(forall.body)
    md.store(body, arith.constant(body, 42.0, F32), view,
             forall.induction_vars)
    scf.yield_(body)
    func.return_(builder)
    return module


def run(pipeline, payload, label):
    print(f"\n--- running {label} ---")
    try:
        PassManager(pipeline).run(payload)
    except ConversionError as error:
        print(f"FAILED: {error}")
        return False
    final = sorted({op.name for op in payload.walk()
                    if op is not payload})
    print(f"succeeded; final ops: {final}")
    return True


def main() -> None:
    # 1. The zero-offset program compiles fine.
    assert run(BROKEN_PIPELINE, build_payload(False),
               "broken pipeline on static-offset payload")

    # 2. Add the %offset argument: the same pipeline now fails with an
    #    error that "does not point towards a solution".
    assert not run(BROKEN_PIPELINE, build_payload(True),
                   "broken pipeline on dynamic-offset payload")

    # 3. The static checker explains it *before* running anything.
    print("\n--- static pre-/post-condition check (no compilation) ---")
    specs = payload_op_specs(build_payload(True))
    report = check_pipeline(BROKEN_PIPELINE, specs, ["llvm.*"])
    for issue in report.leftovers():
        print(f"  {issue}")

    # 4. The fix the checker suggests: lower the affine ops (and the
    #    arith they expand to) after expand-strided-metadata.
    fixed_report = check_pipeline(FIXED_PIPELINE, specs, ["llvm.*"])
    print(f"\nfixed pipeline statically clean: {fixed_report.ok}")
    assert run(FIXED_PIPELINE, build_payload(True),
               "fixed pipeline on dynamic-offset payload")


if __name__ == "__main__":
    main()
