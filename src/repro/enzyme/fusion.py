"""An XLA-like fusion heuristic and cluster cost model (case study 3).

Greedily fuses elementwise producers into consumer clusters (the way
XLA builds loop fusions), then estimates runtime per cluster with a
roofline-style model that penalizes clusters whose working set exceeds
cache — the mechanism by which "fold reshape/transpose into full
reduce" becomes counter-productive: the folded reshape/transpose used
to act as a fusion *barrier*; without it, the heavy producer chain is
pulled into the reduce's cluster, which becomes larger and less
cache-efficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..ir.core import Operation
from ..ir.types import ShapedType

#: Ops that never fuse across (cluster barriers in the heuristic).
_FUSION_BARRIERS = {"stablehlo.reshape", "stablehlo.transpose",
                    "stablehlo.concatenate", "stablehlo.slice",
                    "stablehlo.pad"}

#: Heavy ops that seed their own cluster.
_HEAVY_OPS = {"stablehlo.dot_general", "stablehlo.convolution",
              "stablehlo.reduce"}

_ELEMENTWISE = {
    "stablehlo.add", "stablehlo.subtract", "stablehlo.multiply",
    "stablehlo.divide", "stablehlo.maximum", "stablehlo.minimum",
    "stablehlo.power", "stablehlo.negate", "stablehlo.exponential",
    "stablehlo.log", "stablehlo.rsqrt", "stablehlo.sqrt",
    "stablehlo.tanh", "stablehlo.logistic", "stablehlo.abs",
    "stablehlo.sign", "stablehlo.convert", "stablehlo.select",
    "stablehlo.compare", "stablehlo.broadcast_in_dim",
    "stablehlo.floor", "stablehlo.ceil", "stablehlo.cosine",
    "stablehlo.sine",
}


def _elements(op: Operation) -> int:
    for result in op.results:
        if isinstance(result.type, ShapedType) and \
                result.type.has_static_shape:
            return max(result.type.num_elements, 1)
    for operand in op.operands:
        if isinstance(operand.type, ShapedType) and \
                operand.type.has_static_shape:
            return max(operand.type.num_elements, 1)
    return 1


def _flops(op: Operation) -> float:
    if op.name == "stablehlo.dot_general":
        lhs = op.operand(0).type
        result = op.results[0].type
        if isinstance(lhs, ShapedType) and isinstance(result, ShapedType) \
                and lhs.has_static_shape and result.has_static_shape:
            k = lhs.shape[-1]
            return 2.0 * result.num_elements * k
        return 2.0e6
    if op.name == "stablehlo.reduce":
        return float(_elements(op.operand(0).defining_op() or op))
    if op.name in _ELEMENTWISE:
        return float(_elements(op))
    return 0.0


@dataclass
class FusionCluster:
    ops: List[Operation] = field(default_factory=list)

    @property
    def flops(self) -> float:
        return sum(_flops(op) for op in self.ops)

    @property
    def working_set_bytes(self) -> float:
        """Distinct tensors live inside the cluster, 4 bytes/elem."""
        seen: Set[int] = set()
        total = 0.0
        for op in self.ops:
            for value in [*op.operands, *op.results]:
                if id(value) in seen:
                    continue
                seen.add(id(value))
                value_type = value.type
                if isinstance(value_type, ShapedType) and \
                        value_type.has_static_shape:
                    total += value_type.num_elements * 4.0
        return total

    @property
    def boundary_bytes(self) -> float:
        """Bytes crossing the cluster boundary (materialized tensors)."""
        inside = {id(op) for op in self.ops}
        total = 0.0
        for op in self.ops:
            for operand in op.operands:
                producer = operand.defining_op()
                if producer is None or id(producer) not in inside:
                    operand_type = operand.type
                    if isinstance(operand_type, ShapedType) and \
                            operand_type.has_static_shape:
                        total += operand_type.num_elements * 4.0
            for result in op.results:
                if any(
                    id(use.owner) not in inside for use in result.uses
                ):
                    result_type = result.type
                    if isinstance(result_type, ShapedType) and \
                            result_type.has_static_shape:
                        total += result_type.num_elements * 4.0
        return total


@dataclass
class FusionReport:
    clusters: List[FusionCluster]
    seconds: float
    #: Per-cluster seconds for introspection.
    cluster_seconds: List[float]


class FusionCostModel:
    """Greedy fusion + roofline cost with a cache-pressure penalty."""

    peak_flops = 1.0e11
    memory_bandwidth = 8.0e10
    cache_bytes = 4.0e6
    oversize_penalty = 1.0
    #: Fusing producers into a reduction-rooted cluster inhibits the
    #: tiled/vectorized codegen of the whole cluster (the mechanism
    #: behind the paper's "larger, less cache-efficient fusion
    #: clusters").
    reduce_fusion_slowdown = 3.5
    kernel_launch_seconds = 2.0e-6

    # -- clustering ----------------------------------------------------------

    def build_clusters(self, func_op: Operation) -> List[FusionCluster]:
        """Greedy producer-into-consumer fusion with barriers."""
        assignment: Dict[int, FusionCluster] = {}
        clusters: List[FusionCluster] = []

        ops = [
            op for op in func_op.walk()
            if op.name.startswith("stablehlo.")
            and op.name not in ("stablehlo.constant", "stablehlo.return")
        ]
        # Reverse topological-ish: walk backwards so consumers cluster
        # first and producers join them.
        for op in reversed(ops):
            cluster = assignment.get(id(op))
            if cluster is None:
                cluster = FusionCluster([op])
                clusters.append(cluster)
                assignment[id(op)] = cluster
            if op.name in _FUSION_BARRIERS:
                continue  # never pull producers through a barrier
            for operand in op.operands:
                producer = operand.defining_op()
                if producer is None or id(producer) in assignment:
                    continue
                if producer.name in _FUSION_BARRIERS:
                    continue
                if producer.name in _HEAVY_OPS:
                    continue  # GEMM-like ops run as library calls, unfused
                if producer.name in _ELEMENTWISE:
                    cluster.ops.append(producer)
                    assignment[id(producer)] = cluster
        return clusters

    # -- cost ------------------------------------------------------------------

    def cluster_seconds(self, cluster: FusionCluster) -> float:
        compute = cluster.flops / self.peak_flops
        traffic = cluster.boundary_bytes / self.memory_bandwidth
        seconds = max(compute, traffic) + self.kernel_launch_seconds
        if all(op.name in ("stablehlo.dot_general",
                           "stablehlo.convolution")
               for op in cluster.ops):
            # Library GEMMs are internally cache-blocked: no penalty.
            return seconds
        working_set = cluster.working_set_bytes
        if working_set > self.cache_bytes:
            # Oversized fusion: intermediates spill; efficiency degrades
            # with how badly the cluster overflows the cache.
            overflow = working_set / self.cache_bytes
            seconds *= 1.0 + self.oversize_penalty * (overflow - 1.0) / (
                overflow + 1.0
            ) * min(overflow, 4.0)
        has_reduce = any(op.name == "stablehlo.reduce" for op in cluster.ops)
        if has_reduce and len(cluster.ops) > 1:
            seconds *= self.reduce_fusion_slowdown
        return seconds

    def estimate(self, func_op: Operation) -> FusionReport:
        clusters = self.build_clusters(func_op)
        per_cluster = [self.cluster_seconds(c) for c in clusters]
        return FusionReport(clusters, sum(per_cluster), per_cluster)

    def estimate_module(self, module: Operation) -> FusionReport:
        for op in module.walk_ops("func.func"):
            if op.regions[0].blocks:
                return self.estimate(op)
        raise ValueError("no function found")
