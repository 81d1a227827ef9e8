"""Graph optimization passes.

AStitch "retains all the optimizations of XLA except fusion strategies
and code generation passes" (Sec 5).  This module provides that retained
layer: the standard simplification pipeline every compiler in this
repository can run before kernel formation.

Passes are pure graph-to-graph functions built on a common, lazy
rebuilding skeleton; each returns a new graph plus the number of
rewrites it applied, or the input graph itself (never a copy) when it
applied none.

* :func:`dead_code_elimination` — drop nodes that no output needs;
* :func:`common_subexpression_elimination` — hash-cons structurally
  identical nodes;
* :func:`constant_folding` — evaluate nodes whose operands are all
  constants;
* :func:`algebraic_simplification` — peephole identities
  (``x+0``, ``x*1``, ``x*0``, double negation, reshape-of-reshape,
  broadcast-of-broadcast);
* :func:`optimize` — the standard pipeline, iterated to fixpoint and
  memoized by graph fingerprint.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.ir.fingerprint import canonical_attr, graph_fingerprint
from repro.ir.graph import Graph, Node, constant_value
from repro.ir.interpreter import compile_node
from repro.ir.ops import OpKind
from repro.store import TieredStore

PassFn = Callable[[Graph], tuple[Graph, int]]


@dataclasses.dataclass
class PassReport:
    """What one pipeline run changed.

    Attributes:
        changes: Pass name -> number of rewrites applied.
        iterations: Fixpoint iterations executed.
        reused: True when :func:`optimize` served the run from its memo
            instead of running the passes again.
    """

    changes: dict[str, int]
    iterations: int
    reused: bool = False

    @property
    def total_changes(self) -> int:
        return sum(self.changes.values())


class _Rebuilder:
    """Copies a graph while letting a pass redirect, drop or add nodes.

    Lazy: until a pass first rewrites something, :meth:`copy` maps each
    node to itself and only records it.  The first :meth:`redirect` or
    :meth:`add` (or :meth:`finish`) builds the target graph by copying
    that recorded prefix in order — the very calls an eager copy would
    have made, so names and node order are unchanged — and a pass that
    rewrites nothing builds no copy at all.

    Values of :attr:`mapping` handed back to :meth:`redirect` and
    :meth:`add` may predate the target; they are translated on the way
    in.
    """

    def __init__(self, graph: Graph):
        self.source = graph
        self.target: Optional[Graph] = None
        self.mapping: dict[Node, Node] = {}
        self._kept: list[Node] = []

    def copy(self, node: Node) -> Node:
        """Keep ``node`` (operands must already be mapped)."""
        if self.target is None:
            self.mapping[node] = node
            self._kept.append(node)
            return node
        return self._clone(node)

    def _clone(self, node: Node) -> Node:
        clone = self.target._append(
            node.kind, [self.mapping[op] for op in node.operands],
            node.shape, node.dtype, node.name.split(".")[0],
            dict(node.attrs))
        self.mapping[node] = clone
        return clone

    def _materialize(self) -> bool:
        """Build the target from the recorded prefix; True when this
        call built it (so earlier mapping values need translating)."""
        if self.target is not None:
            return False
        self.target = Graph(self.source.name)
        for node in self._kept:
            self._clone(node)
        self._kept = []
        return True

    def redirect(self, node: Node, replacement: Node) -> None:
        """Make consumers of ``node`` use ``replacement`` instead."""
        if self._materialize():
            replacement = self.mapping[replacement]
        self.mapping[node] = replacement

    def add(self, kind: OpKind, operands: tuple[Node, ...], shape,
            dtype, name: str, **attrs) -> Node:
        """Append a new node to the target."""
        if self._materialize():
            operands = tuple(self.mapping[op] for op in operands)
        return self.target.add(kind, operands, shape, dtype, name=name,
                               **attrs)

    def finish(self) -> Graph:
        self._materialize()
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


# Elements taken from each end of an array attribute into a CSE key.
# The key only buckets candidates; a hit is confirmed on the full
# payload, so a large constant costs a full comparison only when it may
# really merge.
_PROBE = 4


def _structural_key(node: Node, representative: dict[Node, Node],
                    ) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """(bucket key, array payloads) of ``node`` for CSE.

    Operands are keyed by their source-side representative (the node
    they were merged into, else themselves), so keys do not depend on
    whether the rebuilder has built its target yet.
    """
    operands = tuple([representative.get(op, op) for op in node.operands])
    if not node.attrs:
        return (node.kind, node.shape.dims, node.dtype.name, operands,
                ()), ()
    attrs = []
    payloads = []
    for name, value in sorted(node.attrs.items()):
        if isinstance(value, np.ndarray):
            flat = value.reshape(-1)
            attrs.append((name, value.dtype.str, value.shape,
                          flat[:_PROBE].tobytes(),
                          flat[-_PROBE:].tobytes()))
            payloads.append(value)
        else:
            attrs.append((name, canonical_attr(value)))
    key = (node.kind, node.shape.dims, node.dtype.name, operands,
           tuple(attrs))
    return key, tuple(payloads)


def _same_payloads(left: tuple[np.ndarray, ...],
                   right: tuple[np.ndarray, ...]) -> bool:
    """Bitwise equality of equal-shape, equal-dtype arrays (so ``-0.0``
    and ``0.0`` stay apart).

    Along an axis both arrays broadcast (stride 0) every slab equals
    the first, so only that one is compared: folded broadcasts of
    millions of elements compare in a handful.
    """
    for a, b in zip(left, right):
        index = tuple(slice(0, 1) if sa == sb == 0 else slice(None)
                      for sa, sb in zip(a.strides, b.strides))
        unsigned = f"u{a.dtype.itemsize}"
        if not np.array_equal(a[index].view(unsigned),
                              b[index].view(unsigned)):
            return False
    return True


def common_subexpression_elimination(graph: Graph) -> tuple[Graph, int]:
    """Merge structurally identical non-source nodes.

    Graph outputs are never merged *away* — the module signature (number
    and identity of outputs) must survive optimization even when two
    outputs compute the same value.
    """
    rebuilder = _Rebuilder(graph)
    outputs = set(graph.outputs)
    seen: dict[tuple, list[tuple[Node, tuple[np.ndarray, ...]]]] = {}
    representative: dict[Node, Node] = {}
    merged = 0
    for node in graph.topological_order():
        if node.kind is OpKind.PARAMETER:
            rebuilder.copy(node)
            continue
        key, payloads = _structural_key(node, representative)
        bucket = seen.setdefault(key, [])
        existing = None
        for first, first_payloads in bucket:
            if _same_payloads(first_payloads, payloads):
                existing = first
                break
        if existing is not None and node not in outputs:
            rebuilder.redirect(node, rebuilder.mapping[existing])
            representative[node] = existing
            merged += 1
        else:
            rebuilder.copy(node)
            if existing is None:
                bucket.append((node, payloads))
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
    # Source nodes whose value is a constant: CONSTANTs and folded nodes.
    constant_nodes: set[Node] = set()
    for node in graph.topological_order():
        if node.kind is OpKind.CONSTANT:
            rebuilder.copy(node)
            constant_nodes.add(node)
            continue
        if (node.kind is OpKind.PARAMETER or node.is_compute_intensive()
                or node in outputs):
            rebuilder.copy(node)
            continue
        if node.operands and all(op in constant_nodes
                                 for op in node.operands):
            values = [constant_value(rebuilder.mapping[op])
                      for op in node.operands]
            result = np.asarray(compile_node(node)(values),
                                dtype=node.dtype.to_numpy())
            replacement = rebuilder.add(
                OpKind.CONSTANT, (), node.shape, node.dtype,
                name="folded", value=result)
            rebuilder.redirect(node, replacement)
            constant_nodes.add(node)
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
                replacement = rebuilder.add(
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


# Simplified graphs by (input graph fingerprint, max_iterations).  The
# fixpoint does not depend on the compiler, so every compiler that
# simplifies one graph shares one run.  Memory-only: a stored graph is
# shared with the modules compiled from it, which never mutate it.
SIMPLIFY_MEMO: TieredStore = TieredStore(capacity=32)


def clear_simplify_memo() -> None:
    """Empty :data:`SIMPLIFY_MEMO` and zero its counters."""
    SIMPLIFY_MEMO.clear()


def _signature(graph: Graph) -> tuple[int, int]:
    return len(graph), len(graph.outputs)


def optimize(graph: Graph, max_iterations: int = 8,
             ) -> tuple[Graph, PassReport]:
    """Run the standard pipeline to a fixpoint, once per graph.

    Memoized in :data:`SIMPLIFY_MEMO` by the graph's fingerprint: a
    structurally identical graph gets the stored result and a copy of
    its report (with ``reused`` set).  Graphs are append-only, so like
    the fingerprint memo a stored graph whose node or output count has
    changed since it was stored is a miss.

    Returns:
        (optimized graph, report).  The graph is unchanged (same object)
        when nothing fired.
    """
    key = (graph_fingerprint(graph), max_iterations)
    entry = SIMPLIFY_MEMO.get(
        key, fresh=lambda stored: _signature(stored[0]) == stored[2])
    if entry is not None:
        simplified, report, _ = entry
        return (simplified if report.total_changes else graph,
                dataclasses.replace(report, changes=dict(report.changes),
                                    reused=True))

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
    SIMPLIFY_MEMO.put(key, (current, PassReport(dict(changes), iterations),
                            _signature(current)))
    return current, PassReport(changes=changes, iterations=iterations)
