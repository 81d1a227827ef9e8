"""Dependency-pattern queries shared by every compiler.

The paper's fusion decisions hinge on the *element-level* dependency an edge
carries (Sec 2.3.1):

* one-to-one — plain element-wise flow; safe to inline in registers;
* one-to-many — a producer element is needed by many consumer elements
  (broadcast after a reduce or after a heavy element-wise op); inlining
  recomputes the producer once per consumer element;
* many-to-one — a reduce edge; inlining recomputes the whole reduction per
  consumer element.
"""

from __future__ import annotations

import enum

from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind, is_heavy_elementwise


class EdgeDependency(enum.Enum):
    """Element-level dependency carried by a producer->consumer edge."""

    ONE_TO_ONE = "one-to-one"
    ONE_TO_MANY = "one-to-many"
    MANY_TO_ONE = "many-to-one"


def edge_dependency(producer: Node, consumer: Node) -> EdgeDependency:
    """Classify the element-level dependency on edge producer->consumer.

    The classification is from the *consumer's* perspective: how many
    producer elements does one consumer output element need, and vice versa.
    """
    if consumer.kind is OpKind.BROADCAST:
        if consumer.num_elements > producer.num_elements:
            return EdgeDependency.ONE_TO_MANY
        return EdgeDependency.ONE_TO_ONE
    if consumer.kind is OpKind.REDUCE:
        return EdgeDependency.MANY_TO_ONE
    return EdgeDependency.ONE_TO_ONE


def is_heavy_followed_by_broadcast(graph: Graph, node: Node) -> bool:
    """Pattern (2) of Sec 2.3.1: expensive element-wise feeding a broadcast."""
    if not is_heavy_elementwise(node.kind):
        return False
    return any(user.kind is OpKind.BROADCAST and
               user.num_elements > node.num_elements
               for user in graph.users(node))


def is_reduce_with_consumers(graph: Graph, node: Node) -> bool:
    """Pattern (1) of Sec 2.3.1: a reduce whose output is consumed in-graph."""
    if node.kind is not OpKind.REDUCE:
        return False
    return any(user.is_memory_intensive() for user in graph.users(node))


def creates_one_to_many(graph: Graph, node: Node) -> bool:
    """True when fusing ``node`` with its consumers would replicate work.

    This is the union of patterns (1) and (2) — exactly the edges on which
    XLA gives up fusion and TVM pays redundant computation.
    """
    return (is_reduce_with_consumers(graph, node)
            or is_heavy_followed_by_broadcast(graph, node))


def memory_intensive_components(graph: Graph) -> list[list[Node]]:
    """Connected components of memory-intensive nodes.

    Compute-intensive nodes divide the graph; each returned component is one
    memory-intensive subgraph in the paper's sense (Sec 2.1), in topological
    order.
    """
    mem_nodes = graph.memory_intensive_nodes()
    parent: dict[Node, Node] = {n: n for n in mem_nodes}

    def find(x: Node) -> Node:
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Node, b: Node) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    for node in mem_nodes:
        for operand in node.operands:
            if operand in parent:
                union(node, operand)

    groups: dict[Node, list[Node]] = {}
    for node in mem_nodes:
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def operator_fan_out(graph: Graph, node: Node) -> int:
    """Number of memory-intensive consumers (operator-level one-to-many
    when > 1, Sec 2.3.1 last paragraph)."""
    return sum(1 for user in graph.users(node) if user.is_memory_intensive())
