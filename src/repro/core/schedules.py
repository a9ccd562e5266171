"""A distributable library of composed transform schedules (§3.2).

The paper: since transforms are mere operations, compositions can be
organized into macros and "distributed, potentially separately from the
compiler". This module ships such a library as *transform IR text* —
named sequences a user script can ``transform.include`` after linking
the library into it — plus the loader/linker.

Shipped schedules:

* ``@tile_and_unroll_remainder(%loop)`` — the Fig. 1/8 core composition:
  split by 32, tile the divisible part 32x32, fully unroll the rest;
* ``@offload_to_microkernel(%loop)`` — split/tile then try a libxsmm
  substitution inside ``alternatives`` (empty fallback);
* ``@lower_to_llvm(%module)`` — the fixed case-study-2 lowering pipeline
  as a reusable macro.
"""

from __future__ import annotations

from typing import Optional

from ..ir.context import SymbolTable
from ..ir.core import Operation
from ..ir.parser import parse
from .script_transforms import ScriptTransformError

#: The library, distributed as transform IR text (parsed on load).
SCHEDULE_LIBRARY_IR = '''
"builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    %main, %rest = "transform.loop.split"(%loop) {div_by = 32 : i64} \
: (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %outer, %inner = "transform.loop.tile"(%main) \
{tile_sizes = [32 : i64, 32 : i64]} \
: (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.loop.unroll"(%rest) {full = unit} : (!transform.any_op) -> ()
    "transform.yield"(%inner) : (!transform.any_op) -> ()
  }) {sym_name = "tile_and_unroll_remainder"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    %main, %rest = "transform.loop.split"(%loop) {div_by = 32 : i64} \
: (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %outer, %inner = "transform.loop.tile"(%main) \
{tile_sizes = [32 : i64, 32 : i64]} \
: (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.alternatives"(%inner) ({
      "transform.to_library"(%inner) {library = "libxsmm"} \
: (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }, {
    }) : (!transform.any_op) -> ()
    "transform.loop.unroll"(%rest) {full = unit} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "offload_to_microkernel"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%module: !transform.any_op):
    %0 = "transform.apply_registered_pass"(%module) \
{pass_name = "convert-scf-to-cf"} : (!transform.any_op) -> !transform.any_op
    %1 = "transform.apply_registered_pass"(%0) \
{pass_name = "convert-arith-to-llvm"} : (!transform.any_op) -> !transform.any_op
    %2 = "transform.apply_registered_pass"(%1) \
{pass_name = "convert-cf-to-llvm"} : (!transform.any_op) -> !transform.any_op
    %3 = "transform.apply_registered_pass"(%2) \
{pass_name = "convert-func-to-llvm"} : (!transform.any_op) -> !transform.any_op
    %4 = "transform.apply_registered_pass"(%3) \
{pass_name = "expand-strided-metadata"} : (!transform.any_op) -> !transform.any_op
    %5 = "transform.apply_registered_pass"(%4) \
{pass_name = "lower-affine"} : (!transform.any_op) -> !transform.any_op
    %6 = "transform.apply_registered_pass"(%5) \
{pass_name = "convert-arith-to-llvm"} : (!transform.any_op) -> !transform.any_op
    %7 = "transform.apply_registered_pass"(%6) \
{pass_name = "finalize-memref-to-llvm"} : (!transform.any_op) -> !transform.any_op
    %8 = "transform.apply_registered_pass"(%7) \
{pass_name = "reconcile-unrealized-casts"} : (!transform.any_op) -> !transform.any_op
    "transform.yield"(%8) : (!transform.any_op) -> ()
  }) {sym_name = "lower_to_llvm"} : () -> ()
}) : () -> ()
'''


def load_schedule_library() -> Operation:
    """Parse the shipped schedule library into a module of macros."""
    return parse(SCHEDULE_LIBRARY_IR, "<schedule-library>")


def link_schedule_library(script: Operation,
                          library: Optional[Operation] = None) -> int:
    """Copy the library's named sequences into ``script``'s module so
    its ``transform.include`` ops can resolve them.

    Sequences whose names are already defined in the script are skipped
    (user definitions shadow the library). Returns the number linked.
    """
    if library is None:
        library = load_schedule_library()
    if not script.regions or not script.regions[0].blocks:
        raise ScriptTransformError(
            "script has no body block to link into"
        )
    existing = SymbolTable(script).symbols()
    linked = 0
    block = script.regions[0].entry_block
    for name, sequence in SymbolTable(library).symbols().items():
        if name in existing:
            continue
        block.insert(linked, sequence.clone())
        linked += 1
    return linked
