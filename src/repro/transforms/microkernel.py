"""Microkernel library substitution (case study 4).

Models the paper's custom transform that replaces a small fixed-size
matrix multiplication — such as the inner loops left by tiling — with a
call into a LIBXSMM-style microkernel library. The replacement *fails*
(with a silenceable error) when the library has no kernel for the
requested sizes, which is exactly what ``transform.alternatives``
recovers from in Fig. 8.

The matcher understands tiled access patterns: indices of the form
``outer_iv + inner_iv`` are split into a tile offset (defined outside
the nest) and the intra-tile index, and the emitted call receives
``memref.subview``s of the operands at those offsets — so the
substituted kernel computes exactly the tile the loops computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.builder import Builder
from ..ir.context import SymbolTable, nearest_symbol_table
from ..ir.core import Operation, Value
from .loop import LoopTransformError, _perfect_nest, _require_for

#: A tile offset: an SSA value from outside the nest, or 0 (no offset).
Offset = Union[Value, int]


@dataclass
class MatmulPattern:
    """A recognised (possibly tiled) matmul nest:
    C[oi+i, oj+j] += A[oi2+i, ok+k] * B[ok2+k, oj2+j]."""

    m: int
    n: int
    k: int
    a: Value
    b: Value
    c: Value
    #: Per-operand (row, col) tile offsets.
    a_offsets: Tuple[Offset, Offset] = (0, 0)
    b_offsets: Tuple[Offset, Offset] = (0, 0)
    c_offsets: Tuple[Offset, Offset] = (0, 0)

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


def _split_index(index: Value, ivs: Dict[int, int],
                 nest_root: Operation) -> Tuple[int, Offset]:
    """Decompose an access index into (nest-iv position, tile offset).

    Accepts a bare induction variable or ``addi`` of an induction
    variable with a value defined outside the nest.
    """
    if id(index) in ivs:
        return ivs[id(index)], 0
    defining = index.defining_op()
    if defining is not None and defining.name == "arith.addi":
        lhs, rhs = defining.operands
        for iv_candidate, offset_candidate in ((lhs, rhs), (rhs, lhs)):
            if id(iv_candidate) not in ivs:
                continue
            offset_op = offset_candidate.defining_op()
            if offset_op is not None and nest_root.is_ancestor_of(
                offset_op
            ):
                continue  # offset computed inside the nest: not a tile
            return ivs[id(iv_candidate)], offset_candidate
    raise LoopTransformError(
        "access index is not (tile offset +) an induction variable"
    )


def match_matmul_nest(root: Operation) -> MatmulPattern:
    """Structurally match a 3-deep (possibly tiled) matmul nest.

    Raises :class:`LoopTransformError` when the shape does not match —
    matching is the precondition check of the ``to_library`` transform.
    """
    _require_for(root, "matmul match")
    nest = _perfect_nest(root, 3)
    dims: List[int] = []
    for loop in nest:
        bounds = loop.constant_bounds()  # type: ignore[attr-defined]
        if bounds is None:
            raise LoopTransformError("matmul match requires constant bounds")
        lb, ub, step = bounds
        if step != 1:
            raise LoopTransformError("matmul match requires unit steps")
        dims.append(ub - lb)

    ivs = {
        id(loop.induction_var): position  # type: ignore[attr-defined]
        for position, loop in enumerate(nest)
    }

    innermost = nest[-1]
    body_ops = [
        op for op in innermost.body.ops if op.name != "scf.yield"  # type: ignore[attr-defined]
    ]
    loads = [op for op in body_ops if op.name == "memref.load"]
    stores = [op for op in body_ops if op.name == "memref.store"]
    muls = [op for op in body_ops if op.name == "arith.mulf"]
    adds = [op for op in body_ops if op.name == "arith.addf"]
    if len(loads) != 3 or len(stores) != 1 or len(muls) != 1 or len(adds) != 1:
        raise LoopTransformError(
            "loop nest body does not look like a matmul"
        )

    def access_signature(op: Operation, indices: Sequence[Value]):
        if len(indices) != 2:
            raise LoopTransformError("matmul match requires 2-d accesses")
        return tuple(_split_index(index, ivs, root) for index in indices)

    store = stores[0]
    accumulator = store.memref  # type: ignore[attr-defined]
    store_sig = access_signature(store, store.indices)  # type: ignore[attr-defined]

    load_info = []
    for load in loads:
        load_info.append(
            (load.memref, access_signature(load, load.indices))  # type: ignore[attr-defined]
        )

    # Identify loop roles from the accumulator: C[pos_m, pos_n].
    (pos_m, c_row_off), (pos_n, c_col_off) = store_sig
    pos_k = ({0, 1, 2} - {pos_m, pos_n}).pop()

    a_value = b_value = None
    a_offsets = b_offsets = (0, 0)
    for ref, sig in load_info:
        positions = (sig[0][0], sig[1][0])
        if positions == (pos_m, pos_n) and ref is accumulator:
            continue  # the C load
        if positions == (pos_m, pos_k):
            a_value = ref
            a_offsets = (sig[0][1], sig[1][1])
        elif positions == (pos_k, pos_n):
            b_value = ref
            b_offsets = (sig[0][1], sig[1][1])
    if a_value is None or b_value is None:
        raise LoopTransformError(
            "could not identify A[i,k] / B[k,j] operands"
        )

    return MatmulPattern(
        dims[pos_m], dims[pos_n], dims[pos_k],
        a_value, b_value, accumulator,
        a_offsets, b_offsets, (c_row_off, c_col_off),
    )


class MicrokernelLibrary:
    """A LIBXSMM-like library with a bounded kernel table.

    ``find_kernel`` returns a symbol name when a specialized kernel for
    the given sizes exists, or None — driving success/failure of the
    library-substitution transform.
    """

    name = "libxsmm"
    max_mn = 64
    max_k = 512
    alignment = 4

    def supports(self, m: int, n: int, k: int) -> bool:
        return (
            0 < m <= self.max_mn
            and 0 < n <= self.max_mn
            and 0 < k <= self.max_k
            and m % self.alignment == 0
            and n % self.alignment == 0
        )

    def find_kernel(self, m: int, n: int, k: int) -> Optional[str]:
        if not self.supports(m, n, k):
            return None
        return f"{self.name}_smm_{m}x{n}x{k}"


#: The default library instance used by the ``to_library`` transform.
XSMM_LIBRARY = MicrokernelLibrary()


def _tile_view(builder: Builder, source: Value,
               offsets: Tuple[Offset, Offset],
               sizes: Tuple[int, int]) -> Value:
    """The operand the kernel sees: a subview at the tile offsets (or
    the source itself for an untiled, exact-size access)."""
    from ..dialects import memref as memref_dialect
    from ..ir.types import MemRefType

    source_type = source.type
    plain = all(isinstance(o, int) and o == 0 for o in offsets)
    if (
        plain
        and isinstance(source_type, MemRefType)
        and source_type.shape == tuple(sizes)
    ):
        return source
    return memref_dialect.subview(
        builder, source, list(offsets), list(sizes), [1, 1]
    )


def replace_with_library_call(
    root: Operation, library: MicrokernelLibrary = XSMM_LIBRARY
) -> Operation:
    """Replace a matmul loop nest with a microkernel library call.

    Declares the kernel in the enclosing module's symbol table when
    needed, materializes tile subviews for tiled nests, and returns the
    created ``func.call``. Raises :class:`LoopTransformError`
    (silenceable) when the nest does not match or the library lacks a
    suitable kernel — the failure mode ``alternatives`` absorbs in the
    paper's Fig. 8.
    """
    from ..dialects import func as func_dialect

    pattern = match_matmul_nest(root)
    kernel = library.find_kernel(pattern.m, pattern.n, pattern.k)
    if kernel is None:
        raise LoopTransformError(
            f"{library.name} has no kernel for "
            f"{pattern.m}x{pattern.n}x{pattern.k}"
        )

    table_op = nearest_symbol_table(root)
    if table_op is None:
        raise LoopTransformError("loop nest is not inside a module")

    builder = Builder.before(root)
    a_view = _tile_view(builder, pattern.a, pattern.a_offsets,
                        (pattern.m, pattern.k))
    b_view = _tile_view(builder, pattern.b, pattern.b_offsets,
                        (pattern.k, pattern.n))
    c_view = _tile_view(builder, pattern.c, pattern.c_offsets,
                        (pattern.m, pattern.n))

    table = SymbolTable(table_op)
    if table.lookup(kernel) is None:
        declaration = func_dialect.func(
            kernel,
            [a_view.type, b_view.type, c_view.type],
            declaration=True,
        )
        declaration.set_attr("microkernel", True)
        table.insert(declaration)

    call = func_dialect.call(builder, kernel, [a_view, b_view, c_view])
    call.set_attr("microkernel", True)
    call.set_attr("microkernel_flops", pattern.flops)
    root.erase()
    return call
