"""Graph simplification.

AStitch "retains all the optimizations of XLA except fusion strategies
and code generation passes" (Sec 5).  This module provides that retained
layer: the simplification every compiler in this repository can run
before kernel formation.

:func:`optimize` rebuilds a graph in one topological sweep through a
smart constructor, then drops in one mark-sweep what no output needs.
Each node, its operands already rebuilt, goes through in order:

1. the algebraic rules — ``x+0``, ``0+x``, ``x-0``, ``x*1``, ``1*x``,
   ``x/1`` (the 0 or 1 a size-1 constant, possibly broadcast),
   ``-(-x)``, a reshape to its operand's own shape, reshape-of-reshape
   (one reshape, itself rebuilt through the constructor) and the
   identity transpose;
2. constant folding — a memory-intensive node whose operands are all
   constants becomes one constant (compute-intensive nodes stay: folding
   a matmul would hide the library call the benches count);
3. hash-consing — a node structurally identical to one already built
   is replaced by it (constants only when their payloads are
   bit-identical).

Outputs are never rewritten, folded or merged away (their operands
simplify normally), and parameters always stay: both are the module
signature.  Every rule reads only a node's already-simplified operands,
so one sweep reaches the fixpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.ir.fingerprint import canonical_attr, graph_fingerprint
from repro.ir.graph import Graph, Node, constant_value
from repro.ir.interpreter import compile_node
from repro.ir.ops import OpKind
from repro.store import TieredStore, register

# Module-level aliases of the kinds: under Python 3.11 an ``OpKind.X``
# read runs ``EnumType``'s attribute hook (~190 ns, ~15 ns for an
# alias), and the sweep reads several per node.
(_PARAMETER, _CONSTANT, _BROADCAST, _RESHAPE, _TRANSPOSE, _NEGATE) = (
    OpKind.PARAMETER, OpKind.CONSTANT, OpKind.BROADCAST, OpKind.RESHAPE,
    OpKind.TRANSPOSE, OpKind.NEGATE)

# Report keys, one per kind of rewrite the sweep counts.
ALGEBRAIC = "algebraic_simplification"
FOLDING = "constant_folding"
CSE = "common_subexpression_elimination"
DCE = "dead_code_elimination"


@dataclasses.dataclass
class PassReport:
    """What one simplification changed.

    Attributes:
        changes: Rewrite kind -> number of rewrites applied.
        iterations: Sweeps executed (always one).
        reused: True when :func:`optimize` served the run from its memo
            instead of sweeping again.
    """

    changes: dict[str, int]
    iterations: int = 1
    reused: bool = False

    @property
    def total_changes(self) -> int:
        return sum(self.changes.values())


# Elements taken from each end of an array attribute into a CSE key.
# The key only buckets candidates; a hit is confirmed on the full
# payload, so a large constant costs a full comparison only when it may
# really merge.
_PROBE = 4


def _structural_key(node: Node) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """(bucket key, array payloads) of ``node`` for hash-consing.

    Operands are already hash-consed, so their identities are canonical.
    """
    operands = tuple(node.operands)
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


# Binary kind -> (its identity element, the operand positions it may
# take): x+0, 0+x, x-0, x*1, 1*x, x/1.
_IDENTITIES = {
    OpKind.ADD: (0.0, (1, 0)),
    OpKind.SUBTRACT: (0.0, (1,)),
    OpKind.MULTIPLY: (1.0, (1, 0)),
    OpKind.DIVIDE: (1.0, (1,)),
}


def _is_constant_scalar(node: Node, value: float) -> bool:
    if node.kind is _CONSTANT:
        payload = np.asarray(node.attrs["value"])
        return payload.size == 1 and float(payload.reshape(-1)[0]) == value
    if node.kind is _BROADCAST:
        return _is_constant_scalar(node.operands[0], value)
    return False


class _Sweep:
    """One topological rebuild of a graph through the smart constructor.

    :attr:`mapping` takes each source node to the node that replaces it.
    A node whose operands are unchanged and that no rule replaces maps
    to itself, so a sweep that fires nothing copies nothing.  Other
    nodes it keeps belong to no graph (``node_id`` -1) until
    :meth:`finish` appends the survivors to a new one.
    """

    def __init__(self, graph: Graph):
        self.source = graph
        self.outputs = set(graph.outputs)
        self.mapping: dict[Node, Node] = {}
        self.built: list[Node] = []
        self.table: dict[tuple, list[tuple[Node, tuple]]] = {}
        self.changes = dict.fromkeys((ALGEBRAIC, FOLDING, CSE, DCE), 0)
        for node in graph.nodes:
            operands = [self.mapping[op] for op in node.operands]
            candidate = node
            if operands != node.operands:
                candidate = Node(-1, node.name, node.kind, operands,
                                 node.shape, node.dtype, node.attrs)
            self.mapping[node] = self.construct(candidate, node)

    def construct(self, node: Node, source: Node) -> Node:
        """The node to use for ``node`` (operands already swept).

        The algebraic rules, then constant folding, then the hash-cons
        table; ``node`` is kept only when none of them replaced it.  An
        output skips the first two and is never merged away.
        ``source`` is the node of the input graph ``node`` rebuilds (or
        ``node`` itself when a rule built it): a rule may have seen a
        scalar in the source that folding has since spread into a
        full-size constant.
        """
        if node.kind is _PARAMETER:
            self.built.append(node)
            return node
        is_output = source in self.outputs
        if not is_output:
            replacement = self._rewrite(node, source)
            if replacement is not None:
                self.changes[ALGEBRAIC] += 1
                return replacement
            if (node.operands
                    and all(op.kind is _CONSTANT
                            for op in node.operands)
                    and not node.is_compute_intensive()):
                values = [constant_value(op) for op in node.operands]
                result = np.asarray(compile_node(node)(values),
                                    dtype=node.dtype.to_numpy())
                node = Node(-1, "folded", _CONSTANT, [], node.shape,
                            node.dtype, {"value": result})
                self.changes[FOLDING] += 1
        key, payloads = _structural_key(node)
        bucket = self.table.setdefault(key, [])
        for first, first_payloads in bucket:
            if _same_payloads(first_payloads, payloads):
                if is_output:
                    break
                self.changes[CSE] += 1
                return first
        else:
            bucket.append((node, payloads))
        self.built.append(node)
        return node

    def _rewrite(self, node: Node, source: Node) -> Optional[Node]:
        """The algebraic rules: an equivalent node, or None."""
        kind, ops = node.kind, node.operands
        if kind in _IDENTITIES:
            value, positions = _IDENTITIES[kind]
            for i in positions:
                if (_is_constant_scalar(ops[i], value)
                        or (source is not node and _is_constant_scalar(
                            source.operands[i], value))):
                    return ops[1 - i]
        elif kind is _NEGATE:
            inner = source.operands[0]
            if inner.kind is _NEGATE:
                return self.mapping[inner.operands[0]]
            if ops[0].kind is _NEGATE:
                return ops[0].operands[0]
        elif kind is _RESHAPE:
            inner = ops[0]
            if node.shape == inner.shape:
                return inner
            if inner.kind is _RESHAPE:
                rebuilt = Node(-1, "reshape", _RESHAPE,
                               [inner.operands[0]], node.shape,
                               node.dtype, {})
                return self.construct(rebuilt, rebuilt)
        elif kind is _TRANSPOSE:
            if tuple(node.attrs["permutation"]) == tuple(
                    range(node.shape.rank)):
                return ops[0]
        return None

    def finish(self) -> Graph:
        """Drop what no output needs and append the rest to a new graph,
        or return the source graph itself when nothing changed."""
        graph = self.source
        outputs = [self.mapping[out] for out in graph.outputs]
        live = graph.reachable_from(outputs)
        kept = [n for n in self.built
                if n in live or n.kind is _PARAMETER]
        self.changes[DCE] = len(self.built) - len(kept)
        if not any(self.changes.values()):
            return graph
        target = Graph(graph.name)
        clones: dict[Node, Node] = {}
        for node in kept:
            clones[node] = target._append(
                node.kind, [clones[op] for op in node.operands],
                node.shape, node.dtype, node.name.split(".")[0],
                node.attrs)
        interface = (*graph.parameters, *graph.outputs)
        _restore_interface_names(
            target, {n: clones[self.mapping[n]] for n in interface})
        for out in outputs:
            target.mark_output(clones[out])
        return target


def _restore_interface_names(target: Graph,
                             clones: dict[Node, Node]) -> None:
    """Give each interface node's clone in ``target`` its source name.

    Parameter and output names are the module's execution interface:
    feeds and results are keyed by them, and the graph fingerprint
    hashes them.  The rebuild renumbers ("tanh.9" may come back as
    "tanh.1" once duplicates are gone), so put the original names back
    on the interface clones (``clones`` maps source parameters and
    outputs, in order, to them), evicting any unrelated clone that
    happens to hold one.
    """
    desired = {n.name for n in clones}
    by_name = {n.name: n for n in target.nodes}
    for node, clone in clones.items():
        if clone.name == node.name:
            continue
        squatter = by_name.get(node.name)
        if squatter is not None and squatter is not clone:
            fresh = target._unique_name(squatter.name.split(".")[0])
            while fresh in desired or fresh in by_name:
                fresh = target._unique_name(fresh)
            by_name.pop(squatter.name, None)
            squatter.name = fresh
            by_name[fresh] = squatter
        by_name.pop(clone.name, None)
        clone.name = node.name
        by_name[node.name] = clone


# Simplified graphs by input graph fingerprint.  The result does not
# depend on the compiler, so every compiler that simplifies one graph
# shares one sweep.  Memory-only: a stored graph is shared with the
# modules compiled from it, which never mutate it.
SIMPLIFY_MEMO: TieredStore = register("simplify", TieredStore(capacity=32))


def _signature(graph: Graph) -> tuple[int, int]:
    return len(graph), len(graph.outputs)


def optimize(graph: Graph) -> tuple[Graph, PassReport]:
    """Simplify ``graph`` (see the module docstring), once per graph.

    Memoized in :data:`SIMPLIFY_MEMO` by the graph's fingerprint: a
    structurally identical graph gets the stored result and a copy of
    its report (with ``reused`` set).  Graphs are append-only, so like
    the fingerprint memo a stored graph whose node or output count has
    changed since it was stored is a miss.

    Returns:
        (optimized graph, report).  The graph is unchanged (same object)
        when nothing fired.
    """
    key = graph_fingerprint(graph)
    entry = SIMPLIFY_MEMO.get(
        key, fresh=lambda stored: _signature(stored[0]) == stored[2])
    if entry is not None:
        simplified, report, _ = entry
        return (simplified if report.total_changes else graph,
                dataclasses.replace(report, changes=dict(report.changes),
                                    reused=True))

    sweep = _Sweep(graph)
    current = sweep.finish()
    SIMPLIFY_MEMO.put(key, (current, PassReport(dict(sweep.changes)),
                            _signature(current)))
    return current, PassReport(changes=sweep.changes)
