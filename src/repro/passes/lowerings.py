"""Progressive lowering passes (the Table-2 pipeline of the paper).

Seven passes take a mixed scf/arith/memref/func program down to the
LLVM dialect:

1. ``convert-scf-to-cf``       — structured control flow to branches
2. ``convert-arith-to-llvm``   — arithmetic to LLVM ops
3. ``convert-cf-to-llvm``      — branches to LLVM branches
4. ``convert-func-to-llvm``    — functions/calls/returns to LLVM
5. ``expand-strided-metadata`` — externalize non-trivial memref addressing
   (this is the pass that *introduces* ``affine.apply`` — the culprit of
   the case-study-2 pipeline failure)
6. ``finalize-memref-to-llvm`` — trivially-indexed memrefs to pointers
7. ``reconcile-unrealized-casts`` — cancel temporary casts, or fail with
   MLIR's exact error message

plus ``lower-affine``, the fix that legalizes the leaked affine ops.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.affine import AffineConstant, AffineDim, AffineExpr, AffineMap, AffineSymbol
from ..ir.attributes import DenseIntAttr, SymbolRefAttr
from ..ir.builder import Builder
from ..ir.core import Block, Operation, Value
from ..ir.types import (
    DYNAMIC,
    I1,
    I64,
    IndexType,
    LLVMPointerType,
    MemRefType,
    Type,
)
from ..rewrite.conversion import (
    ConversionRewriter,
    ConversionTarget,
    TypeConverter,
)
from ..rewrite.pattern import pattern
from .manager import ConversionPass, WalkPass, pattern_roots, register_pass

# ---------------------------------------------------------------------------
# Shared LLVM type converter
# ---------------------------------------------------------------------------


def llvm_type_converter(convert_memref: bool = True) -> TypeConverter:
    converter = TypeConverter()

    def convert(type: Type) -> Optional[Type]:
        if isinstance(type, IndexType):
            return I64
        if convert_memref and isinstance(type, MemRefType):
            return LLVMPointerType()
        return None

    converter.add_conversion(convert)
    return converter


# ---------------------------------------------------------------------------
# 1. convert-scf-to-cf
# ---------------------------------------------------------------------------


def _split_block_after(op: Operation, arg_types: List[Type]) -> Block:
    """Move everything after ``op`` into a fresh successor block."""
    block = op.parent
    assert block is not None and block.parent is not None
    region = block.parent
    continuation = Block(arg_types)
    while op.next_op is not None:
        continuation.append(op.next_op)
    region.insert_block(region.blocks.index(block) + 1, continuation)
    return continuation


def lower_scf_for(for_op: Operation) -> None:
    """Classic CFG lowering: entry -> cond -> body -> cond / continue."""
    from ..dialects import arith, cf, scf  # local to avoid import cycles

    block = for_op.parent
    assert block is not None and block.parent is not None
    region = block.parent

    iter_types = [v.type for v in for_op.operands[3:]]
    continuation = _split_block_after(for_op, iter_types)
    for result, arg in zip(for_op.results, continuation.args):
        result.replace_all_uses_with(arg)

    cond_block = Block([IndexType(), *iter_types])
    region.insert_block(region.blocks.index(block) + 1, cond_block)

    body_block = for_op.regions[0].entry_block
    # Remap body block arguments (iv + iter args) to the condition
    # block's arguments, then strip them: the body becomes a plain block.
    for body_arg, cond_arg in zip(list(body_block.args), cond_block.args):
        body_arg.replace_all_uses_with(cond_arg)
    body_block.set_args([])
    for_op.regions[0].remove_block(body_block)
    region.insert_block(region.blocks.index(cond_block) + 1, body_block)

    lb, ub, step = for_op.operands[0], for_op.operands[1], for_op.operands[2]
    inits = for_op.operands[3:]

    # Terminate the entry block with a jump into the condition block.
    entry_builder = Builder.at_end(block)
    for_op.drop_all_references()
    block.remove(for_op)
    cf.br(entry_builder, cond_block, [lb, *inits])

    # Condition block: iv < ub ? body : continuation.
    cond_builder = Builder.at_end(cond_block)
    in_bounds = arith.cmpi(cond_builder, "slt", cond_block.args[0], ub)
    cf.cond_br(
        cond_builder,
        in_bounds,
        body_block,
        continuation,
        true_args=[],
        false_args=list(cond_block.args[1:]),
    )

    # Body terminator: increment the induction variable and loop back.
    yield_op = body_block.ops[-1]
    assert yield_op.name == "scf.yield"
    yielded = list(yield_op.operands)
    body_builder = Builder.before(yield_op)
    next_iv = arith.addi(body_builder, cond_block.args[0], step)
    yield_op.drop_all_references()
    body_block.remove(yield_op)
    body_builder = Builder.at_end(body_block)
    cf.br(body_builder, cond_block, [next_iv, *yielded])


def lower_scf_if(if_op: Operation) -> None:
    from ..dialects import cf

    block = if_op.parent
    assert block is not None and block.parent is not None
    region = block.parent

    result_types = [r.type for r in if_op.results]
    continuation = _split_block_after(if_op, result_types)
    for result, arg in zip(if_op.results, continuation.args):
        result.replace_all_uses_with(arg)

    branch_blocks: List[Block] = []
    for branch_region in if_op.regions:
        if not branch_region.blocks:
            branch_blocks.append(continuation)
            continue
        branch_block = branch_region.entry_block
        branch_region.remove_block(branch_block)
        region.insert_block(region.blocks.index(block) + 1, branch_block)
        terminator = branch_block.ops[-1] if branch_block.ops else None
        yielded: List[Value] = []
        if terminator is not None and terminator.name == "scf.yield":
            yielded = list(terminator.operands)
            terminator.drop_all_references()
            branch_block.remove(terminator)
        cf.br(Builder.at_end(branch_block), continuation, yielded)
        branch_blocks.append(branch_block)
    while len(branch_blocks) < 2:
        branch_blocks.append(continuation)

    condition = if_op.operand(0)
    builder = Builder.at_end(block)
    if_op.drop_all_references()
    block.remove(if_op)
    cf.cond_br(builder, condition, branch_blocks[0], branch_blocks[1])


def lower_scf_forall(forall_op: Operation) -> None:
    """Rewrite scf.forall into a nest of scf.for (then lowered normally)."""
    from ..dialects import arith, scf

    builder = Builder.before(forall_op)
    zero = arith.index_constant(builder, 0)
    one = arith.index_constant(builder, 1)

    bounds = list(forall_op.operands)
    body = forall_op.regions[0].entry_block

    outer: Optional[Operation] = None
    ivs: List[Value] = []
    inner_builder = builder
    for bound in bounds:
        loop = scf.for_(inner_builder, zero, bound, one)
        if outer is None:
            outer = loop
        ivs.append(loop.induction_var)
        inner_builder = Builder.at_end(loop.body)
    # Move the forall body into the innermost loop.
    innermost_block = inner_builder.ip.block
    for arg, iv in zip(list(body.args), ivs):
        arg.replace_all_uses_with(iv)
    for op in list(body.ops):
        body.remove(op)
        innermost_block.append(op)
    terminator = innermost_block.ops[-1] if innermost_block.ops else None
    if terminator is None or terminator.name != "scf.yield":
        scf.yield_(Builder.at_end(innermost_block))
    # Close intermediate loops with yields.
    current = outer
    while current is not None and current.name == "scf.for":
        block = current.regions[0].entry_block
        if not block.ops or block.ops[-1].name != "scf.yield":
            scf.yield_(Builder.at_end(block))
        nested = [o for o in block.ops if o.name == "scf.for"]
        current = nested[0] if nested else None
    forall_op.erase()


_SCF_LOWERINGS = {"scf.for": lower_scf_for, "scf.if": lower_scf_if,
                  "scf.forall": lower_scf_forall}


@pattern(frozenset(_SCF_LOWERINGS), label="scf-to-cf",
         generates={"cf.br", "cf.cond_br", "arith.addi", "arith.cmpi",
                    "arith.constant", "scf.for", "scf.yield"})
def lower_scf(candidate: Operation, rewriter) -> bool:
    # Outermost first: each lowering takes its regions' blocks whole,
    # so an op inside one still to lower waits for the next round.
    ancestor = candidate.parent_op
    while ancestor is not None:
        if ancestor.name in _SCF_LOWERINGS:
            return False
        ancestor = ancestor.parent_op
    _SCF_LOWERINGS[candidate.name](candidate)
    return True


@register_pass
class ConvertSCFToCFPass(ConversionPass):
    """Structured control flow to basic blocks (paper Fig. 2 / Table 2
    row 1); a forall becomes a loop nest, which is lowered in turn."""

    NAME = "convert-scf-to-cf"
    DESCRIPTION = "lower structured control flow to basic blocks"
    PATTERNS = (lower_scf,)
    TARGET = ConversionTarget().add_illegal_dialect("scf")

    def run(self, op: Operation) -> None:
        # Lowering what an scf op holds would leave blocks in its
        # single-block region.
        if op.name.startswith("scf."):
            raise ValueError(f"cannot run on {op.name}, an op it lowers")
        super().run(op)


# ---------------------------------------------------------------------------
# 2. convert-arith-to-llvm
# ---------------------------------------------------------------------------

_ARITH_TO_LLVM = {
    "arith.addi": "llvm.add",
    "arith.subi": "llvm.sub",
    "arith.muli": "llvm.mul",
    "arith.divsi": "llvm.sdiv",
    "arith.divui": "llvm.udiv",
    "arith.remsi": "llvm.srem",
    "arith.andi": "llvm.and",
    "arith.ori": "llvm.or",
    "arith.xori": "llvm.xor",
    "arith.shli": "llvm.shl",
    "arith.shrsi": "llvm.ashr",
    "arith.addf": "llvm.fadd",
    "arith.subf": "llvm.fsub",
    "arith.mulf": "llvm.fmul",
    "arith.divf": "llvm.fdiv",
    "arith.select": "llvm.select",
    "arith.index_cast": "llvm.sext",
    "arith.sitofp": "llvm.sitofp",
    "arith.fptosi": "llvm.fptosi",
    "arith.extf": "llvm.fpext",
    "arith.truncf": "llvm.fptrunc",
    "arith.extsi": "llvm.sext",
    "arith.extui": "llvm.zext",
    "arith.trunci": "llvm.trunc",
    "arith.bitcast": "llvm.bitcast",
}


#: Index to i64; memrefs stay (``finalize-memref-to-llvm`` converts them).
_INDEX_TO_I64 = llvm_type_converter(convert_memref=False)


@pattern("arith.*", label="arith-to-llvm",
         generates={"llvm.constant", "llvm.icmp", "llvm.fcmp",
                    *_ARITH_TO_LLVM.values()})
def convert_arith(candidate: Operation, rewriter) -> bool:
    operands = rewriter.remapped_operands(candidate)
    result_types = [
        _INDEX_TO_I64.convert_type(r.type) for r in candidate.results
    ]
    if candidate.name == "arith.constant":
        new_op = rewriter.create(
            "llvm.constant",
            result_types=result_types,
            attributes={"value": candidate.attr("value")},
        )
    elif candidate.name in ("arith.cmpi", "arith.cmpf"):
        llvm_name = (
            "llvm.icmp" if candidate.name == "arith.cmpi"
            else "llvm.fcmp"
        )
        new_op = rewriter.create(
            llvm_name,
            operands=operands,
            result_types=result_types,
            attributes={"predicate": candidate.attr("predicate")},
        )
    elif candidate.name in ("arith.maxsi", "arith.minsi",
                            "arith.maximumf", "arith.minimumf"):
        predicate = "sgt" if "max" in candidate.name else "slt"
        cmp_name = (
            "llvm.icmp" if candidate.name.endswith("i")
            else "llvm.fcmp"
        )
        cmp = rewriter.create(
            cmp_name,
            operands=operands,
            result_types=[I1],
            attributes={"predicate": predicate},
        )
        new_op = rewriter.create(
            "llvm.select",
            operands=[cmp.result, *operands],
            result_types=result_types,
        )
    else:
        llvm_name = _ARITH_TO_LLVM.get(candidate.name)
        if llvm_name is None:
            return False
        new_op = rewriter.create(
            llvm_name, operands=operands, result_types=result_types
        )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class ConvertArithToLLVMPass(ConversionPass):
    NAME = "convert-arith-to-llvm"
    DESCRIPTION = "lower arith ops to the LLVM dialect"
    PATTERNS = (convert_arith,)
    TARGET = (ConversionTarget().add_illegal_dialect("arith")
              .add_legal_dialect("llvm", "builtin"))
    CONVERTER = _INDEX_TO_I64


# ---------------------------------------------------------------------------
# 3. convert-cf-to-llvm
# ---------------------------------------------------------------------------


_CF_TO_LLVM = {
    "cf.br": "llvm.br",
    "cf.cond_br": "llvm.cond_br",
    "cf.switch": "llvm.switch",
}


@pattern(frozenset(_CF_TO_LLVM), label="cf-to-llvm",
         generates=set(_CF_TO_LLVM.values()))
def convert_cf(candidate: Operation, rewriter) -> bool:
    new_op = rewriter.create(
        _CF_TO_LLVM[candidate.name],
        operands=rewriter.remapped_operands(candidate),
        successors=list(candidate.successors),
        attributes=dict(candidate.attributes),
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class ConvertCFToLLVMPass(ConversionPass):
    NAME = "convert-cf-to-llvm"
    DESCRIPTION = "lower cf branches to LLVM branches"
    PATTERNS = (convert_cf,)
    TARGET = (ConversionTarget().add_illegal_dialect("cf")
              .add_legal_dialect("llvm", "builtin"))
    CONVERTER = _INDEX_TO_I64


# ---------------------------------------------------------------------------
# 4. convert-func-to-llvm
# ---------------------------------------------------------------------------


@pattern("func.func", label="func-to-llvm", generates={"llvm.func"})
def convert_func(func_op: Operation, rewriter) -> bool:
    """Move the body into an ``llvm.func`` and convert its block
    signatures."""
    new_func = rewriter.create("llvm.func", regions=1,
                               attributes=dict(func_op.attributes))
    region = func_op.regions[0]
    for block in list(region.blocks):
        region.remove_block(block)
        new_func.regions[0].add_block(block)
        rewriter.convert_block_signature(block)
    rewriter.erase_op(func_op)
    return True


_FUNC_TO_LLVM = {"func.call": "llvm.call", "func.return": "llvm.return"}


@pattern(frozenset(_FUNC_TO_LLVM), label="func-ops-to-llvm",
         generates=set(_FUNC_TO_LLVM.values()))
def convert_call_or_return(candidate: Operation, rewriter) -> bool:
    new_op = rewriter.create(
        _FUNC_TO_LLVM[candidate.name],
        operands=rewriter.remapped_operands(candidate),
        result_types=[_INDEX_TO_I64.convert_type(r.type)
                      for r in candidate.results],
        attributes={"callee": candidate.attr("callee")}
        if candidate.name == "func.call" else None,
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@register_pass
class ConvertFuncToLLVMPass(ConversionPass):
    NAME = "convert-func-to-llvm"
    DESCRIPTION = "lower func.func/call/return to the LLVM dialect"
    PATTERNS = (convert_func, convert_call_or_return)
    TARGET = (ConversionTarget().add_illegal_dialect("func")
              .add_legal_dialect("llvm", "builtin"))
    CONVERTER = _INDEX_TO_I64


# ---------------------------------------------------------------------------
# 5. expand-strided-metadata
# ---------------------------------------------------------------------------


@pattern("memref.subview", label="expand-subview",
         generates={"memref.extract_strided_metadata", "affine.apply",
                    "arith.constant", "memref.reinterpret_cast"})
def expand_subview(subview: Operation, rewriter) -> bool:
    """A non-trivial subview becomes ``extract_strided_metadata`` +
    offset arithmetic + ``reinterpret_cast``; a *dynamic* offset
    becomes an ``affine.apply`` index computation."""
    from ..dialects import affine as affine_dialect, arith

    if subview.has_trivial_metadata:  # type: ignore[attr-defined]
        return False
    source_type = subview.source.type  # type: ignore[attr-defined]
    assert isinstance(source_type, MemRefType)
    strides = source_type.identity_strides()
    metadata = rewriter.create(
        "memref.extract_strided_metadata",
        operands=[subview.source],  # type: ignore[attr-defined]
        result_types=[
            MemRefType((), source_type.element_type),
            IndexType(),
            *[IndexType()] * source_type.rank * 2,
        ],
    )

    static_offsets = subview.static_offsets  # type: ignore[attr-defined]
    dynamic_values = list(subview.dynamic_operands)  # type: ignore[attr-defined]

    # Linear offset = sum(offset_i * stride_i). Static parts fold into
    # a constant; dynamic parts become an affine.apply over symbols.
    static_part = sum(
        offset * stride
        for offset, stride in zip(static_offsets, strides)
        if offset != DYNAMIC
    )
    expr: AffineExpr = AffineConstant(static_part)
    dynamic_operands: List[Value] = []
    for offset, stride in zip(static_offsets, strides):
        if offset == DYNAMIC:
            expr = expr + AffineSymbol(len(dynamic_operands)) * stride
            dynamic_operands.append(dynamic_values[len(dynamic_operands)])

    if dynamic_operands:
        offset_map = AffineMap(0, len(dynamic_operands), (expr,))
        linear_offset = affine_dialect.apply(
            rewriter, offset_map, dynamic_operands
        )
    else:
        linear_offset = arith.constant(rewriter, static_part, IndexType())

    sizes = subview.static_sizes  # type: ignore[attr-defined]
    recast = rewriter.create(
        "memref.reinterpret_cast",
        operands=[metadata.results[0], linear_offset],
        result_types=[MemRefType(tuple(sizes), source_type.element_type)],
        attributes={
            "static_sizes": DenseIntAttr(tuple(sizes)),
            "static_strides": DenseIntAttr(tuple(strides[-len(sizes):])) if sizes else DenseIntAttr(()),
        },
    )
    rewriter.replace_op(subview, [recast.result])
    return True


@register_pass
class ExpandStridedMetadataPass(WalkPass):
    """Externalize non-trivial memref addressing.

    Subviews with a purely static zero-offset/unit-stride layout pass
    through untouched. The ``affine.apply`` its pattern generates for a
    dynamic offset is the operation the rest of the Table-2 pipeline
    does not expect (case study 2).
    """

    NAME = "expand-strided-metadata"
    DESCRIPTION = "externalize non-trivial memref address computations"
    PATTERNS = (expand_subview,)
    POSTCONDITIONS = {"memref.subview.constr"}


# ---------------------------------------------------------------------------
# 6. finalize-memref-to-llvm
# ---------------------------------------------------------------------------

_TO_POINTERS = llvm_type_converter(convert_memref=True)

#: What :func:`_linearized_address` builds.
_ADDRESSING = {"llvm.constant", "llvm.mul", "llvm.add", "llvm.getelementptr"}


@pattern("memref.load", label="memref-load-to-llvm",
         generates={*_ADDRESSING, "llvm.load"})
def convert_load(candidate: Operation, rewriter) -> bool:
    operands = rewriter.remapped_operands(candidate)
    address = _linearized_address(rewriter, operands[0], operands[1:],
                                  candidate.operand(0).type)
    new_op = rewriter.create(
        "llvm.load", operands=[address],
        result_types=[_TO_POINTERS.convert_type(candidate.results[0].type)],
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@pattern("memref.store", label="memref-store-to-llvm",
         generates={*_ADDRESSING, "llvm.store"})
def convert_store(candidate: Operation, rewriter) -> bool:
    operands = rewriter.remapped_operands(candidate)
    address = _linearized_address(rewriter, operands[1], operands[2:],
                                  candidate.operand(1).type)
    rewriter.create("llvm.store", operands=[operands[0], address])
    rewriter.replace_op(candidate, [])
    return True


@pattern(frozenset({"memref.alloc", "memref.alloca"}),
         label="memref-alloc-to-llvm", generates={"llvm.constant", "llvm.call"})
def convert_alloc(candidate: Operation, rewriter) -> bool:
    size = rewriter.create(
        "llvm.constant", result_types=[I64],
        attributes={"value": candidate.attr("byte_size") or 0},
    )
    new_op = rewriter.create(
        "llvm.call", operands=[size.result],
        result_types=[LLVMPointerType()],
        attributes={"callee": SymbolRefAttr("malloc")},
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@pattern("memref.dealloc", label="memref-dealloc-to-llvm",
         generates={"llvm.call"})
def convert_dealloc(candidate: Operation, rewriter) -> bool:
    rewriter.create("llvm.call",
                    operands=rewriter.remapped_operands(candidate),
                    attributes={"callee": SymbolRefAttr("free")})
    rewriter.replace_op(candidate, [])
    return True


@pattern("memref.reinterpret_cast", label="reinterpret-cast-to-llvm",
         generates={"llvm.getelementptr"})
def convert_reinterpret_cast(candidate: Operation, rewriter) -> bool:
    # base pointer + byte offset -> getelementptr
    new_op = rewriter.create(
        "llvm.getelementptr",
        operands=rewriter.remapped_operands(candidate)[:2],
        result_types=[LLVMPointerType()],
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@pattern("memref.extract_strided_metadata", label="strided-metadata-to-llvm",
         generates={"llvm.constant"})
def convert_strided_metadata(candidate: Operation, rewriter) -> bool:
    operands = rewriter.remapped_operands(candidate)
    source_type = candidate.operand(0).type
    assert isinstance(source_type, MemRefType)
    replacements: List[Value] = [operands[0]]
    for value in (0, *source_type.shape, *source_type.identity_strides()):
        replacements.append(rewriter.create(
            "llvm.constant", result_types=[I64], attributes={"value": value},
        ).result)
    rewriter.replace_op(candidate, replacements[: len(candidate.results)])
    return True


@pattern("memref.extract_aligned_pointer_as_index",
         label="aligned-pointer-to-llvm", generates={"llvm.ptrtoint"})
def convert_aligned_pointer(candidate: Operation, rewriter) -> bool:
    new_op = rewriter.create(
        "llvm.ptrtoint", operands=rewriter.remapped_operands(candidate),
        result_types=[I64],
    )
    rewriter.replace_op(candidate, new_op.results)
    return True


@pattern("memref.cast", label="memref-forward")
def forward_source(candidate: Operation, rewriter) -> bool:
    rewriter.replace_op(candidate, rewriter.remapped_operands(candidate)[:1])
    return True


_MEMREF_TO_LLVM = (convert_load, convert_store, convert_alloc,
                   convert_dealloc, convert_reinterpret_cast,
                   convert_strided_metadata, convert_aligned_pointer,
                   forward_source)


@pattern("memref.subview", label="trivial-subview-to-llvm")
def forward_trivial_subview(candidate: Operation, rewriter) -> bool:
    # A non-trivial view cannot be legalized here.
    if not candidate.has_trivial_metadata:  # type: ignore[attr-defined]
        return False
    rewriter.replace_op(candidate, rewriter.remapped_operands(candidate)[:1])
    return True


@register_pass
class FinalizeMemRefToLLVMPass(ConversionPass):
    NAME = "finalize-memref-to-llvm"
    DESCRIPTION = "lower trivially-indexed memrefs to LLVM pointers"
    PATTERNS = (*_MEMREF_TO_LLVM, forward_trivial_subview)
    TARGET = (ConversionTarget().add_illegal_dialect("memref")
              .add_legal_dialect("llvm", "builtin"))
    CONVERTER = _TO_POINTERS
    PRECONDITIONS = {*pattern_roots(_MEMREF_TO_LLVM), "memref.subview.constr"}

    def run(self, op: Operation) -> None:
        signature_rewriter = ConversionRewriter(self.CONVERTER)
        for func_op in list(op.walk_ops("llvm.func")):
            for block in func_op.regions[0].blocks:
                signature_rewriter.convert_block_signature(block)
        super().run(op)
        self._adopt_converted_operands(op, self.CONVERTER)

    @staticmethod
    def _adopt_converted_operands(root: Operation,
                                  converter: TypeConverter) -> None:
        """Direct calling convention: llvm ops consuming a cast back to
        a memref/index simply take the converted (ptr/i64) value.

        Mirrors MLIR's bare-pointer call convention, where calls are
        rewritten against the full LLVM type converter so no cast
        survives at llvm-op operands.
        """
        for user in root.walk():
            if not user.name.startswith("llvm."):
                continue
            for index, operand in enumerate(user.operands):
                defining = operand.defining_op()
                if (
                    defining is not None
                    and defining.name == CAST_NAME
                    and converter.convert_type(operand.type)
                    == defining.operand(0).type
                ):
                    user.set_operand(index, defining.operand(0))


def _linearized_address(rewriter, base: Value, indices: List[Value],
                        ref_type: Type) -> Value:
    """getelementptr(base, sum(index_i * stride_i)) for static shapes."""
    assert isinstance(ref_type, MemRefType)
    strides = ref_type.identity_strides()
    linear: Optional[Value] = None
    for index_value, stride in zip(indices, strides):
        stride_const = rewriter.create(
            "llvm.constant", result_types=[I64], attributes={"value": stride}
        )
        term = rewriter.create(
            "llvm.mul",
            operands=[index_value, stride_const.result],
            result_types=[I64],
        )
        if linear is None:
            linear = term.result
        else:
            linear = rewriter.create(
                "llvm.add", operands=[linear, term.result],
                result_types=[I64],
            ).result
    if linear is None:
        linear = rewriter.create(
            "llvm.constant", result_types=[I64], attributes={"value": 0}
        ).result
    return rewriter.create(
        "llvm.getelementptr",
        operands=[base, linear],
        result_types=[LLVMPointerType()],
    ).result


# ---------------------------------------------------------------------------
# 7. reconcile-unrealized-casts
# ---------------------------------------------------------------------------

CAST_NAME = "builtin.unrealized_conversion_cast"


@pattern(CAST_NAME, label="reconcile-cast-chain")
def reconcile_cast_chain(cast: Operation, rewriter) -> bool:
    """Cancel ``cast`` against the nearest value up its chain of casts
    that has its result type (a cast of ``x: T -> T``, a pair, a longer
    chain), or erase it unused; then erase the casts of the chain that
    nothing uses any more."""
    above = cast.operand(0)
    replacement = _nearest_of_type(above, cast.results[0].type)
    if replacement is not None:
        rewriter.replace_op(cast, [replacement])
    elif cast.results[0].has_uses():
        return False
    else:
        rewriter.erase_op(cast)
    defining = above.defining_op()
    while (defining is not None and defining.name == CAST_NAME
           and not defining.results[0].has_uses()):
        above = defining.operand(0)
        rewriter.erase_op(defining)
        defining = above.defining_op()
    return True


def _nearest_of_type(value: Value, type: Type) -> Optional[Value]:
    """``value``, or the nearest value of ``type`` up its cast chain."""
    for _ in range(32):
        if value.type == type:
            return value
        defining = value.defining_op()
        if defining is None or defining.name != CAST_NAME:
            return None
        value = defining.operand(0)
    return None


@register_pass
class ReconcileUnrealizedCastsPass(ConversionPass):
    """Cancel matching cast pairs; fail on leftovers with MLIR's wording."""

    NAME = "reconcile-unrealized-casts"
    DESCRIPTION = "eliminate temporary conversion casts"
    PATTERNS = (reconcile_cast_chain,)
    TARGET = ConversionTarget().add_illegal_op(CAST_NAME)


# ---------------------------------------------------------------------------
# lower-affine (the fix for case study 2)
# ---------------------------------------------------------------------------


def _expand_affine_expr(builder: Builder, expr: AffineExpr,
                        dims: List[Value], symbols: List[Value]) -> Value:
    from ..dialects import arith

    if isinstance(expr, AffineConstant):
        return arith.constant(builder, expr.value, IndexType())
    if isinstance(expr, AffineDim):
        return dims[expr.position]
    if isinstance(expr, AffineSymbol):
        return symbols[expr.position]
    lhs = _expand_affine_expr(builder, expr.lhs, dims, symbols)  # type: ignore[attr-defined]
    rhs = _expand_affine_expr(builder, expr.rhs, dims, symbols)  # type: ignore[attr-defined]
    kind = expr.kind  # type: ignore[attr-defined]
    if kind == "add":
        return arith.addi(builder, lhs, rhs)
    if kind == "mul":
        return arith.muli(builder, lhs, rhs)
    if kind in ("floordiv", "ceildiv"):
        return arith.divsi(builder, lhs, rhs)
    return arith.remsi(builder, lhs, rhs)


_AFFINE_OPS = ("affine.apply", "affine.min", "affine.max")


@pattern(frozenset(_AFFINE_OPS), label="affine-to-arith",
         generates={"arith.addi", "arith.muli", "arith.divsi", "arith.remsi",
                    "arith.constant", "arith.maxsi", "arith.minsi"})
def expand_affine(affine_op: Operation, rewriter) -> bool:
    from ..dialects import arith

    map_ = affine_op.map  # type: ignore[attr-defined]
    dims = affine_op.operands[: map_.num_dims]
    symbols = affine_op.operands[map_.num_dims :]
    values = [
        _expand_affine_expr(rewriter, expr, dims, symbols)
        for expr in map_.results
    ]
    combined = values[0]
    for value in values[1:]:
        combined = (
            arith.minsi(rewriter, combined, value)
            if affine_op.name == "affine.min"
            else arith.maxsi(rewriter, combined, value)
        )
    rewriter.replace_op(affine_op, [combined])
    return True


@register_pass
class LowerAffinePass(ConversionPass):
    NAME = "lower-affine"
    DESCRIPTION = "expand affine.apply/min/max into arith ops"
    PATTERNS = (expand_affine,)
    TARGET = ConversionTarget().add_illegal_op(*_AFFINE_OPS)
