"""Graph optimization passes.

AStitch "retains all the optimizations of XLA except fusion strategies
and code generation passes" (Sec 5).  This module provides that retained
layer: the standard simplification pipeline every compiler in this
repository can run before kernel formation.

Passes are pure graph-to-graph functions built on a common rebuilding
skeleton; each returns a new graph plus a report of what it changed.

* :func:`dead_code_elimination` — drop nodes that no output needs;
* :func:`common_subexpression_elimination` — hash-cons structurally
  identical nodes;
* :func:`constant_folding` — evaluate nodes whose operands are all
  constants;
* :func:`algebraic_simplification` — peephole identities
  (``x+0``, ``x*1``, ``x*0``, double negation, reshape-of-reshape,
  broadcast-of-broadcast);
* :func:`optimize` — the standard pipeline, iterated to fixpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.ir.graph import Graph, Node, constant_value
from repro.ir.interpreter import compile_node
from repro.ir.ops import OpKind

PassFn = Callable[[Graph], tuple[Graph, int]]


@dataclasses.dataclass
class PassReport:
    """What one pipeline run changed.

    Attributes:
        changes: Pass name -> number of rewrites applied.
        iterations: Fixpoint iterations executed.
    """

    changes: dict[str, int]
    iterations: int

    @property
    def total_changes(self) -> int:
        return sum(self.changes.values())


class _Rebuilder:
    """Copies a graph while letting a pass redirect or drop nodes."""

    def __init__(self, graph: Graph, name: Optional[str] = None):
        self.source = graph
        self.target = Graph(name or graph.name)
        self.mapping: dict[Node, Node] = {}

    def copy(self, node: Node) -> Node:
        """Copy ``node`` (operands must already be mapped)."""
        operands = [self.mapping[op] for op in node.operands]
        clone = self.target.add(node.kind, operands, node.shape,
                                node.dtype,
                                name=node.name.split(".")[0],
                                **dict(node.attrs))
        self.mapping[node] = clone
        return clone

    def redirect(self, node: Node, replacement: Node) -> None:
        """Make consumers of ``node`` use ``replacement`` instead."""
        self.mapping[node] = replacement

    def finish(self) -> Graph:
        self._restore_interface_names()
        for out in self.source.outputs:
            self.target.mark_output(self.mapping[out])
        return self.target

    def _restore_interface_names(self) -> None:
        # Parameter and output names are the module's execution
        # interface: feeds and results are keyed by them, and the graph
        # fingerprint hashes them.  ``copy`` renumbers ("tanh.9" may
        # come back as "tanh.1" once duplicates are gone), so put the
        # original names back on the interface clones, evicting any
        # unrelated clone that happens to hold one.
        interface = [n for n in (*self.source.parameters,
                                 *self.source.outputs)
                     if n in self.mapping]
        desired = {n.name for n in interface}
        by_name = {n.name: n for n in self.target.nodes}
        for node in interface:
            clone = self.mapping[node]
            if clone.name == node.name:
                continue
            squatter = by_name.get(node.name)
            if squatter is not None and squatter is not clone:
                fresh = self.target._unique_name(
                    squatter.name.split(".")[0])
                while fresh in desired or fresh in by_name:
                    fresh = self.target._unique_name(fresh)
                by_name.pop(squatter.name, None)
                squatter.name = fresh
                by_name[fresh] = squatter
            by_name.pop(clone.name, None)
            clone.name = node.name
            by_name[node.name] = clone


def dead_code_elimination(graph: Graph) -> tuple[Graph, int]:
    """Remove nodes not reachable from any graph output."""
    live = graph.reachable_from(graph.outputs)
    # Parameters stay: they are the module signature.
    removed = [n for n in graph.nodes
               if n not in live and n.kind is not OpKind.PARAMETER]
    if not removed:
        return graph, 0
    rebuilder = _Rebuilder(graph)
    for node in graph.topological_order():
        if node in live or node.kind is OpKind.PARAMETER:
            rebuilder.copy(node)
    return rebuilder.finish(), len(removed)


def _structural_key(node: Node, mapping: dict[Node, Node]) -> tuple:
    operands = tuple(id(mapping[op]) for op in node.operands)
    attrs = tuple(sorted((k, repr(v)) for k, v in node.attrs.items()))
    return (node.kind, node.shape.dims, node.dtype.name, operands, attrs)


def common_subexpression_elimination(graph: Graph) -> tuple[Graph, int]:
    """Merge structurally identical non-source nodes.

    Graph outputs are never merged *away* — the module signature (number
    and identity of outputs) must survive optimization even when two
    outputs compute the same value.
    """
    rebuilder = _Rebuilder(graph)
    outputs = set(graph.outputs)
    seen: dict[tuple, Node] = {}
    merged = 0
    for node in graph.topological_order():
        if node.kind is OpKind.PARAMETER:
            rebuilder.copy(node)
            continue
        key = _structural_key(node, rebuilder.mapping)
        existing = seen.get(key)
        if existing is not None and node not in outputs:
            rebuilder.redirect(node, existing)
            merged += 1
        else:
            clone = rebuilder.copy(node)
            if existing is None:
                seen[key] = clone
    if merged == 0:
        return graph, 0
    return rebuilder.finish(), merged


def constant_folding(graph: Graph) -> tuple[Graph, int]:
    """Evaluate nodes whose operands are all constants.

    Compute-intensive nodes are left alone (folding a matmul at compile
    time is legal but hides the library call the benches count).
    """
    rebuilder = _Rebuilder(graph)
    outputs = set(graph.outputs)
    folded = 0
    constant_nodes: set[Node] = set()
    for node in graph.topological_order():
        if node.kind is OpKind.CONSTANT:
            constant_nodes.add(rebuilder.copy(node))
            continue
        if (node.kind is OpKind.PARAMETER or node.is_compute_intensive()
                or node in outputs):
            rebuilder.copy(node)
            continue
        mapped_ops = [rebuilder.mapping[op] for op in node.operands]
        if mapped_ops and all(op in constant_nodes for op in mapped_ops):
            values = [constant_value(op) for op in mapped_ops]
            result = np.asarray(compile_node(node)(values),
                                dtype=node.dtype.to_numpy())
            replacement = rebuilder.target.add(
                OpKind.CONSTANT, (), node.shape, node.dtype,
                name="folded", value=result)
            rebuilder.redirect(node, replacement)
            constant_nodes.add(replacement)
            folded += 1
        else:
            rebuilder.copy(node)
    if folded == 0:
        return graph, 0
    return rebuilder.finish(), folded


def _is_constant_scalar(node: Node, value: float) -> bool:
    if node.kind is OpKind.CONSTANT:
        payload = np.asarray(node.attrs["value"])
        return payload.size == 1 and float(payload.reshape(-1)[0]) == value
    if node.kind is OpKind.BROADCAST:
        return _is_constant_scalar(node.operands[0], value)
    return False


def algebraic_simplification(graph: Graph) -> tuple[Graph, int]:
    """Peephole identities that frameworks emit constantly."""
    rebuilder = _Rebuilder(graph)
    outputs = set(graph.outputs)
    rewrites = 0
    for node in graph.topological_order():
        if node in outputs:
            # Never rewrite an output node away: the module signature
            # must survive (its *operands* still simplify normally).
            rebuilder.copy(node)
            continue
        replacement = None
        ops = node.operands
        if node.kind is OpKind.ADD:
            if _is_constant_scalar(ops[1], 0.0):
                replacement = rebuilder.mapping[ops[0]]
            elif _is_constant_scalar(ops[0], 0.0):
                replacement = rebuilder.mapping[ops[1]]
        elif node.kind is OpKind.SUBTRACT:
            if _is_constant_scalar(ops[1], 0.0):
                replacement = rebuilder.mapping[ops[0]]
        elif node.kind is OpKind.MULTIPLY:
            if _is_constant_scalar(ops[1], 1.0):
                replacement = rebuilder.mapping[ops[0]]
            elif _is_constant_scalar(ops[0], 1.0):
                replacement = rebuilder.mapping[ops[1]]
        elif node.kind is OpKind.DIVIDE:
            if _is_constant_scalar(ops[1], 1.0):
                replacement = rebuilder.mapping[ops[0]]
        elif node.kind is OpKind.NEGATE:
            inner = ops[0]
            if inner.kind is OpKind.NEGATE:
                replacement = rebuilder.mapping[inner.operands[0]]
        elif node.kind is OpKind.RESHAPE:
            inner = ops[0]
            mapped = rebuilder.mapping[inner]
            if node.shape == inner.shape:
                replacement = mapped
            elif mapped.kind is OpKind.RESHAPE:
                # reshape(reshape(x)) -> reshape(x)
                replacement = rebuilder.target.add(
                    OpKind.RESHAPE, (mapped.operands[0],), node.shape,
                    node.dtype, name="reshape")
        elif node.kind is OpKind.TRANSPOSE:
            perm = tuple(node.attrs["permutation"])
            if perm == tuple(range(node.shape.rank)):
                replacement = rebuilder.mapping[ops[0]]

        if replacement is not None:
            rebuilder.redirect(node, replacement)
            rewrites += 1
        else:
            rebuilder.copy(node)
    if rewrites == 0:
        return graph, 0
    return rebuilder.finish(), rewrites


STANDARD_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("algebraic_simplification", algebraic_simplification),
    ("constant_folding", constant_folding),
    ("common_subexpression_elimination",
     common_subexpression_elimination),
    ("dead_code_elimination", dead_code_elimination),
)


def optimize(graph: Graph, max_iterations: int = 8,
             ) -> tuple[Graph, PassReport]:
    """Run the standard pipeline to a fixpoint.

    Returns:
        (optimized graph, report).  The graph is unchanged (same object)
        when nothing fired.
    """
    changes: dict[str, int] = {name: 0 for name, _ in STANDARD_PASSES}
    iterations = 0
    current = graph
    for _ in range(max_iterations):
        iterations += 1
        fired = 0
        for name, pass_fn in STANDARD_PASSES:
            current, count = pass_fn(current)
            changes[name] += count
            fired += count
        if fired == 0:
            break
    return current, PassReport(changes=changes, iterations=iterations)
