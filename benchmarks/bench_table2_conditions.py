"""Table 2 + case study 2: pre-/post-conditions and static checking.

Regenerates the Table-2 condition rows from the pass declarations,
statically checks the broken and fixed pipelines (reporting the leaked
``affine.apply`` exactly as §4.2 describes), and benchmarks the cost of
the static checker and of the dynamic (IRDL-verified) pipeline run.
"""

import pytest

from repro.analysis import check_pipeline
from repro.core import (
    DynamicConditionChecker,
    TransformInterpreter,
    pass_conditions,
    pipeline_to_transform_script,
)
from repro.dialects import arith, builtin, func, memref as md, scf
from repro.ir import Builder, F32, INDEX
from repro.ir.types import memref
from repro.passes import PassManager
from repro.rewrite.conversion import ConversionError

BROKEN = [
    "convert-scf-to-cf", "convert-arith-to-llvm", "convert-cf-to-llvm",
    "convert-func-to-llvm", "expand-strided-metadata",
    "finalize-memref-to-llvm", "reconcile-unrealized-casts",
]
FIXED = BROKEN[:5] + ["lower-affine", "convert-arith-to-llvm"] + BROKEN[5:]
INPUT_SPECS = {"func.func", "func.return", "scf.forall",
               "arith.constant", "memref.subview", "memref.store"}


def build_payload(dynamic_offset):
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


def test_table2_condition_rows(benchmark):
    """Print the Table-2 rows straight from the pass declarations."""
    print("\nTable 2 — declared pre-/post-conditions")
    for index, name in enumerate(BROKEN, start=1):
        conditions = pass_conditions(name)
        pre = sorted(conditions.preconditions)
        post = sorted(conditions.postconditions)[:6]
        print(f"({index}) {name}")
        print(f"    pre:  {pre}")
        print(f"    post: {post}{' ...' if len(conditions.postconditions) > 6 else ''}")
        assert conditions is not None
    benchmark(lambda: [pass_conditions(n) for n in BROKEN])


def test_static_checker_flags_broken_pipeline(benchmark):
    report = benchmark(check_pipeline, BROKEN, INPUT_SPECS, ["llvm.*"])
    assert not report.ok
    leaked = [str(issue) for issue in report.leftovers()]
    assert any("affine.apply" in text for text in leaked)
    print("\nstatic check (broken pipeline):")
    for text in leaked:
        print(f"  {text}")


def test_static_checker_passes_fixed_pipeline(benchmark):
    report = benchmark(check_pipeline, FIXED, INPUT_SPECS, ["llvm.*"])
    assert report.ok
    print("\nstatic check (fixed pipeline): OK — final IR is {llvm.*}")


def test_dynamic_failure_matches_paper_error(benchmark):
    """The runtime error the static checker predicted."""

    def run_broken():
        module = build_payload(dynamic_offset=True)
        try:
            PassManager(BROKEN).run(module)
        except ConversionError as error:
            return str(error)
        return None

    message = benchmark(run_broken)
    assert message is not None
    assert ("failed to legalize operation "
            "'builtin.unrealized_conversion_cast' that was explicitly "
            "marked illegal") in message
    print(f"\ndynamic error: {message}")


def test_fixed_pipeline_compiles_dynamic_offset(benchmark):
    def run_fixed():
        module = build_payload(dynamic_offset=True)
        PassManager(FIXED).run(module)
        return module

    module = benchmark(run_fixed)
    names = {op.name for op in module.walk() if op is not module}
    assert all(name.startswith("llvm.") for name in names)


def test_dynamic_condition_checking_overhead(benchmark):
    """Ablation: IRDL dynamic verification cost on the fixed pipeline."""

    def run_checked():
        module = build_payload(dynamic_offset=True)
        script = pipeline_to_transform_script(FIXED)
        checker = DynamicConditionChecker()
        checker.apply(script, module)
        return checker

    checker = benchmark(run_checked)
    assert checker.violations == []
