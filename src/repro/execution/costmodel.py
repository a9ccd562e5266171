"""An analytic, cache-aware performance model for loop nests.

Substitutes the paper's hardware measurements (case studies 4 and 5):
runtimes are *estimated* from the loop-nest structure with a classic
reuse/footprint cache model, so transformations change estimated
runtime for the same mechanistic reasons they change real runtime:

* **tiling** shrinks the data footprint between temporal reuses,
  turning cache misses into hits;
* **unrolling** amortizes loop overhead;
* **vectorization** (modelled via a ``vector_width`` loop attribute)
  divides arithmetic/contiguous-access cost — but only when the access
  is unit-stride along the vectorized loop;
* **microkernel calls** run at near-peak FLOP throughput.

The model is deliberately simple (strides per loop + footprint
thresholds per cache level) but it is *derived from the IR*, not
hard-coded per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.core import Block, Operation, Value
from ..ir.types import MemRefType


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy."""

    size_bytes: int
    latency_cycles: float


@dataclass(frozen=True)
class MachineSpec:
    """The modelled machine (loosely a Skylake-SP core at 2 GHz)."""

    l1: CacheLevel = CacheLevel(32 * 1024, 4.0)
    l2: CacheLevel = CacheLevel(1024 * 1024, 14.0)
    memory_latency_cycles: float = 80.0
    line_bytes: int = 64
    element_bytes: int = 8
    clock_hz: float = 2.0e9
    flop_cycles: float = 1.0
    int_op_cycles: float = 0.5
    loop_overhead_cycles: float = 2.0
    loop_setup_cycles: float = 4.0
    call_overhead_cycles: float = 200.0
    #: FLOPs/cycle a hand-tuned microkernel sustains (2 FMA ports x 8 lanes).
    microkernel_flops_per_cycle: float = 24.0
    #: Fraction of the ideal vector speedup compiler-autovectorized loops
    #: reach (reduction carries, prologue/epilogue, alignment).
    vector_efficiency: float = 0.35
    #: Default trip count assumed for loops with unknown bounds.
    default_trip: int = 64


_FLOAT_OPS = {"arith.addf", "arith.subf", "arith.mulf", "arith.divf",
              "arith.maximumf", "arith.minimumf", "vector.fma"}
_INT_OPS = {"arith.addi", "arith.subi", "arith.muli", "arith.divsi",
            "arith.remsi", "arith.cmpi", "arith.select", "arith.andi",
            "arith.ori", "arith.xori", "arith.index_cast", "affine.apply",
            "affine.min", "arith.maxsi", "arith.minsi"}


@dataclass
class _LoopInfo:
    op: Operation
    trip: int
    vector_width: int = 1


class CostModel:
    """Estimates the runtime of payload functions."""

    def __init__(self, machine: Optional[MachineSpec] = None):
        self.machine = machine or MachineSpec()
        self._footprints: Dict[int, float] = {}
        self._site_counts: Dict[int, int] = {}

    # -- public API -----------------------------------------------------------

    def estimate_module(self, module: Operation) -> float:
        """Estimated seconds for one invocation of the first function
        definition."""
        for op in module.walk_ops("func.func"):
            if op.regions[0].blocks:
                return self.estimate_function(op)
        raise ValueError("no function definition found")

    def estimate_function(self, func_op: Operation) -> float:
        # Count access sites per base buffer: cold misses to the same
        # buffer are shared among sites (the first site's miss is every
        # other site's hit), so each site carries 1/N of the cold lines.
        self._site_counts = {}
        self._footprints = {}
        for access in _collect_accesses(func_op):
            ref, _indices = _access_operands(access)
            if ref is not None:
                self._site_counts[id(ref)] = (
                    self._site_counts.get(id(ref), 0) + 1
                )
        cycles = self._block_cycles(
            func_op.regions[0].entry_block, loop_stack=[]
        )
        return cycles / self.machine.clock_hz

    # -- structure traversal ------------------------------------------------

    def _block_cycles(self, block: Block,
                      loop_stack: List[_LoopInfo]) -> float:
        machine = self.machine
        total = 0.0
        for op in block.ops:
            name = op.name
            if name == "scf.for":
                trip = op.trip_count()  # type: ignore[attr-defined]
                if trip is None:
                    trip = machine.default_trip
                width_attr = op.attr("vector_width")
                width = getattr(width_attr, "value", 1) or 1
                info = _LoopInfo(op, max(trip, 0), int(width))
                body_cycles = self._block_cycles(
                    op.regions[0].entry_block, loop_stack + [info]
                )
                effective = self._effective_width(info.vector_width)
                iterations = max(info.trip / effective, 1.0) \
                    if info.trip else 0.0
                total += machine.loop_setup_cycles + iterations * (
                    body_cycles + machine.loop_overhead_cycles
                )
                continue
            if name == "scf.forall":
                trips = []
                for bound in op.operands:
                    defining = bound.defining_op()
                    trips.append(
                        defining.value  # type: ignore[attr-defined]
                        if defining is not None
                        and defining.name == "arith.constant"
                        else machine.default_trip
                    )
                body_cycles = self._block_cycles(
                    op.regions[0].entry_block,
                    loop_stack
                    + [_LoopInfo(op, t) for t in trips],
                )
                count = 1
                for trip in trips:
                    count *= trip
                total += count * (
                    body_cycles + machine.loop_overhead_cycles
                )
                continue
            if name == "scf.if":
                branch_costs = [
                    self._block_cycles(region.entry_block, loop_stack)
                    for region in op.regions
                    if region.blocks
                ]
                total += 1.0 + (max(branch_costs) if branch_costs else 0.0)
                continue
            if name in ("memref.load", "memref.store", "vector.load",
                        "vector.store"):
                total += self._access_cycles(op, loop_stack)
                continue
            if name == "func.call":
                flops_attr = op.attr("microkernel_flops")
                if flops_attr is not None:
                    total += (
                        machine.call_overhead_cycles
                        + flops_attr.value  # type: ignore[union-attr]
                        / machine.microkernel_flops_per_cycle
                    )
                else:
                    total += machine.call_overhead_cycles
                continue
            if name in _FLOAT_OPS:
                total += machine.flop_cycles
                continue
            if name in _INT_OPS:
                total += machine.int_op_cycles
                continue
            # Constants, yields, casts: free.
        return total

    # -- memory access model ---------------------------------------------------

    def _access_cycles(self, op: Operation,
                       loop_stack: List[_LoopInfo]) -> float:
        machine = self.machine
        ref, indices = _access_operands(op)
        if ref is None or not isinstance(ref.type, MemRefType):
            return machine.l1.latency_cycles
        strides = _strides_per_loop(op, ref, indices, loop_stack)

        total_accesses = 1.0
        for info in loop_stack:
            total_accesses *= max(info.trip, 1)

        lines = self._distinct_lines(strides, loop_stack)
        lines /= max(self._site_counts.get(id(ref), 1), 1)
        l1_misses = self._misses(lines, strides, loop_stack,
                                 machine.l1.size_bytes)
        l2_misses = self._misses(lines, strides, loop_stack,
                                 machine.l2.size_bytes)
        l2_misses = min(l2_misses, l1_misses)
        l1_misses = min(l1_misses, total_accesses)
        l2_misses = min(l2_misses, l1_misses)

        hits = total_accesses - l1_misses
        cycles_total = (
            hits * machine.l1.latency_cycles
            + (l1_misses - l2_misses) * machine.l2.latency_cycles
            + l2_misses * machine.memory_latency_cycles
        )
        per_access = cycles_total / max(total_accesses, 1.0)
        # A vectorized loop processes `effective_width` iterations per
        # dynamic iteration (accounted at the loop level); non-unit-
        # stride accesses inside it need a gather per lane, cancelling
        # that benefit for this access.
        if loop_stack:
            innermost = loop_stack[-1]
            stride = strides.get(id(innermost.op))
            if innermost.vector_width > 1 and stride not in (0, 1):
                per_access *= self._effective_width(
                    innermost.vector_width
                )
        return per_access

    def _effective_width(self, width: int) -> float:
        """Realized vector speedup (reduction carries, epilogues, ...)."""
        if width <= 1:
            return 1.0
        return 1.0 + (width - 1) * self.machine.vector_efficiency

    def _distinct_lines(self, strides: Dict[int, Optional[int]],
                        loop_stack: List[_LoopInfo]) -> float:
        machine = self.machine
        distinct = 1.0
        min_stride: Optional[int] = None
        for info in loop_stack:
            stride = strides.get(id(info.op), 0)
            if stride is None:
                distinct *= max(info.trip, 1)  # unknown: assume distinct
                continue
            if stride == 0:
                continue
            distinct *= max(info.trip, 1)
            if min_stride is None or abs(stride) < min_stride:
                min_stride = abs(stride)
        if min_stride is not None:
            stride_bytes = min_stride * machine.element_bytes
            if stride_bytes < machine.line_bytes:
                distinct *= stride_bytes / machine.line_bytes
        return max(distinct, 1.0)

    def _misses(self, base_lines: float,
                strides: Dict[int, Optional[int]],
                loop_stack: List[_LoopInfo], cache_size: int) -> float:
        """Cold misses, multiplied when temporal reuse exceeds capacity."""
        misses = base_lines
        for depth, info in enumerate(loop_stack):
            stride = strides.get(id(info.op), 0)
            if stride != 0:
                continue
            # The access is invariant across this loop: reuse across its
            # iterations is only realized when everything touched during
            # one iteration fits in the cache.
            footprint = self._iteration_footprint(
                loop_stack, depth, strides_of=None
            )
            if footprint > cache_size:
                misses *= max(info.trip, 1)
        return misses

    def _iteration_footprint(self, loop_stack: List[_LoopInfo],
                             depth: int, strides_of) -> float:
        """Bytes touched during one iteration of ``loop_stack[depth]``.

        Approximated from the accesses cached during analysis of the
        loop's subtree (computed lazily and memoized per loop op).
        """
        info = loop_stack[depth]
        cached = self._footprints.get(id(info.op))
        if cached is not None:
            return cached
        machine = self.machine
        inner_loops = _collect_loops(info.op)
        footprint = 0.0
        for access in _collect_accesses(info.op):
            ref, indices = _access_operands(access)
            if ref is None or not isinstance(ref.type, MemRefType):
                continue
            stack = [
                _LoopInfo(loop, _trip_or_default(loop, machine))
                for loop in inner_loops
                if loop.is_ancestor_of(access)
            ]
            strides = _strides_per_loop(access, ref, indices, stack)
            footprint += (
                self._distinct_lines(strides, stack) * machine.line_bytes
            )
        self._footprints[id(info.op)] = footprint
        return footprint


# ---------------------------------------------------------------------------
# IR analysis helpers
# ---------------------------------------------------------------------------


def _access_operands(op: Operation) -> Tuple[Optional[Value], List[Value]]:
    if op.name in ("memref.load", "vector.load"):
        return op.operand(0), op.operands[1:]
    if op.name == "memref.store":
        return op.operand(1), op.operands[2:]
    if op.name == "vector.store":
        return op.operand(1), op.operands[2:]
    return None, []


def _trip_or_default(loop: Operation, machine: MachineSpec) -> int:
    trip = None
    if loop.name == "scf.for":
        trip = loop.trip_count()  # type: ignore[attr-defined]
    return trip if trip is not None else machine.default_trip


def _collect_loops(root: Operation) -> List[Operation]:
    return [op for op in root.walk()
            if op.name in ("scf.for", "scf.forall")]


def _collect_accesses(root: Operation) -> List[Operation]:
    return [
        op for op in root.walk()
        if op.name in ("memref.load", "memref.store", "vector.load",
                       "vector.store")
    ]


def _iv_of(loop: Operation) -> Optional[Value]:
    if loop.name == "scf.for" and loop.regions[0].blocks:
        return loop.regions[0].entry_block.args[0]
    return None


def _coefficient(value: Value, iv: Value,
                 depth: int = 0) -> Optional[int]:
    """Coefficient of ``iv`` in the (affine-ish) index ``value``.

    Returns 0 when independent, a constant factor when linear, None when
    the dependence is non-affine/unknown.
    """
    if value is iv:
        return 1
    if depth > 12:
        return None
    defining = value.defining_op()
    if defining is None:
        return 0
    name = defining.name
    if name == "arith.constant":
        return 0
    if name in ("arith.addi", "arith.subi"):
        lhs = _coefficient(defining.operand(0), iv, depth + 1)
        rhs = _coefficient(defining.operand(1), iv, depth + 1)
        if lhs is None or rhs is None:
            return None
        return lhs + rhs if name == "arith.addi" else lhs - rhs
    if name == "arith.muli":
        lhs_const = _constant_of(defining.operand(0))
        rhs_const = _constant_of(defining.operand(1))
        lhs = _coefficient(defining.operand(0), iv, depth + 1)
        rhs = _coefficient(defining.operand(1), iv, depth + 1)
        if lhs == 0 and lhs_const is not None and rhs is not None:
            return lhs_const * rhs
        if rhs == 0 and rhs_const is not None and lhs is not None:
            return rhs_const * lhs
        if lhs == 0 and rhs == 0:
            return 0
        return None
    if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
        return _coefficient(defining.operand(0), iv, depth + 1)
    if name in ("affine.apply", "affine.min"):
        coefficients = [
            _coefficient(operand, iv, depth + 1)
            for operand in defining.operands
        ]
        if any(c is None for c in coefficients):
            return None
        if all(c == 0 for c in coefficients):
            return 0
        return None  # affine but composite: treat as unknown stride
    # Any other producer: independent only if no operand depends on iv.
    for operand in defining.operands:
        inner = _coefficient(operand, iv, depth + 1)
        if inner is None or inner != 0:
            return None
    return 0


def _constant_of(value: Value) -> Optional[int]:
    defining = value.defining_op()
    if defining is not None and defining.name == "arith.constant":
        payload = defining.value  # type: ignore[attr-defined]
        return payload if isinstance(payload, int) else None
    return None


def _strides_per_loop(access: Operation, ref: Value,
                      indices: Sequence[Value],
                      loop_stack: List[_LoopInfo]
                      ) -> Dict[int, Optional[int]]:
    """Element stride of the access w.r.t. each loop in the stack."""
    ref_type = ref.type
    assert isinstance(ref_type, MemRefType)
    memory_strides = ref_type.identity_strides()
    out: Dict[int, Optional[int]] = {}
    for info in loop_stack:
        iv = _iv_of(info.op)
        if iv is None:
            if info.op.name == "scf.forall" and info.op.regions[0].blocks:
                # Conservative: any body argument may index the access.
                out[id(info.op)] = None
                continue
            out[id(info.op)] = 0
            continue
        total: Optional[int] = 0
        for dim, index in enumerate(indices):
            coefficient = _coefficient(index, iv)
            if coefficient is None:
                total = None
                break
            if dim < len(memory_strides):
                total += coefficient * memory_strides[dim]
        if total is not None:
            step = 1
            bounds = None
            if info.op.name == "scf.for":
                bounds = info.op.constant_bounds()  # type: ignore[attr-defined]
            if bounds is not None:
                step = bounds[2]
            total *= step
        out[id(info.op)] = total
    return out
