"""Shared fusion machinery for the baseline compilers.

XLA- and TVM-style fusion both work the same way structurally: pick the
*fusion roots* inside each memory-intensive component, then grow each
root's kernel backwards over operands, inlining producers per element.
What differs is only the root rule — where each compiler gives up — and
that is precisely the dilemma of Sec 2.3.1:

* XLA roots every reduce-with-consumers and every heavy-element-wise op
  followed by a broadcast (skips fusion, more kernels);
* TVM roots only reduces (fuses pattern (2), paying the Fig 5 redundant
  recomputation).

Per-element inlining makes redundancy exact: a producer's recompute factor
is the sum over its in-kernel uses of the broadcast amplification along
each use path.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Optional

from repro.codegen.builder import make_kernel
from repro.codegen.kernel import Kernel
from repro.codegen.schedule import ThreadMapping
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind, SOURCES
from repro.ir import patterns

MappingFn = Callable[[Node], ThreadMapping]


def has_external_user(graph: Graph, node: Node, component: set[Node],
                      graph_outputs: Optional[set[Node]] = None) -> bool:
    """True when the value must be materialized for consumers outside the
    memory-intensive component (or is a graph output / sink).

    Args:
        graph_outputs: Pre-built output set; pass it when calling in a
            loop (the root rules check every component node) so the set
            is not rebuilt per node.
    """
    if graph_outputs is None:
        graph_outputs = set(graph.outputs)
    if node in graph_outputs:
        return True
    users = graph.users(node)
    if not users:
        return True
    return any(u not in component for u in users)


# Producers above this size with several consumers are materialized by
# XLA instead of duplicated (its fusion-duplication limit).
_XLA_DUPLICATION_LIMIT = 4096


def xla_fusion_roots(graph: Graph, component: list[Node]) -> list[Node]:
    """Roots under XLA's conservative rule.

    A node ends its kernel when (a) its value leaves the component,
    (b) it is a reduce with memory-intensive consumers or a heavy
    element-wise op feeding a broadcast (the skipped one-to-many
    fusions), or (c) it is a *large* value with several consumers —
    XLA's duplication limit materializes those rather than re-inlining
    the producer subtree into every consumer kernel.
    """
    comp_set = set(component)
    graph_outputs = set(graph.outputs)
    roots = []
    for node in component:
        materialize_shared = (
            patterns.operator_fan_out(graph, node) >= 2
            and node.num_elements > _XLA_DUPLICATION_LIMIT
            and node.kind not in (OpKind.BROADCAST, OpKind.RESHAPE))
        if (has_external_user(graph, node, comp_set, graph_outputs)
                or patterns.is_reduce_with_consumers(graph, node)
                or patterns.is_heavy_followed_by_broadcast(graph, node)
                or materialize_shared):
            roots.append(node)
    return roots


def tvm_fusion_roots(graph: Graph, component: list[Node]) -> list[Node]:
    """Roots under TVM's rule (break only at reduces; fuse pattern (2))."""
    comp_set = set(component)
    graph_outputs = set(graph.outputs)
    roots = []
    for node in component:
        if (has_external_user(graph, node, comp_set, graph_outputs)
                or patterns.is_reduce_with_consumers(graph, node)):
            roots.append(node)
    return roots


def _edge_amplification(consumer: Node, operand: Node) -> float:
    """Per-element inlining recompute multiplier across one edge."""
    if (consumer.kind is OpKind.BROADCAST
            and consumer.num_elements > operand.num_elements):
        return consumer.num_elements / operand.num_elements
    return 1.0


def grow_fusion_group(graph: Graph, root: Node, roots: set[Node],
                      component: set[Node],
                      ) -> tuple[list[Node], dict[Node, float]]:
    """Collect the nodes inlined into ``root``'s kernel and their factors.

    Returns:
        (nodes, redundancy) where redundancy maps each node to its total
        recompute factor under per-element inlining.

    Factors accumulate over a reverse topological sweep of the fusion
    region (never by path enumeration — diamond-shaped producer chains
    would make that exponential).
    """
    region: set[Node] = {root}
    stack = [root]
    while stack:
        consumer = stack.pop()
        for operand in consumer.operands:
            if operand not in component or operand in roots:
                continue
            if operand.kind in SOURCES:
                continue
            if operand not in region:
                region.add(operand)
                stack.append(operand)

    # Node ids increase topologically, so descending order visits every
    # consumer before its operands.
    nodes = sorted(region, key=lambda n: n.node_id)
    redundancy: dict[Node, float] = {root: 1.0}
    for consumer in reversed(nodes):
        factor = redundancy.get(consumer, 0.0)
        for operand in consumer.operands:
            if operand not in region or operand is consumer:
                continue
            amplified = factor * _edge_amplification(consumer, operand)
            redundancy[operand] = redundancy.get(operand, 0.0) + amplified
    return nodes, redundancy


def build_root_kernels(graph: Graph, component: list[Node],
                       roots: Iterable[Node],
                       mapping_fn: MappingFn) -> list[Kernel]:
    """One kernel per fusion root, producers inlined (and duplicated)."""
    comp_set = set(component)
    root_set = set(roots)
    kernels = []
    for root in sorted(root_set, key=lambda n: n.node_id):
        nodes, redundancy = grow_fusion_group(graph, root, root_set,
                                              comp_set)
        kernels.append(make_kernel(
            graph, nodes, mapping_fn(root),
            name=f"f_{root.name}",
            redundancy=redundancy,
            outputs=[root],
        ))
    return kernels
