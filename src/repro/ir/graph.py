"""Computation graph.

A :class:`Graph` is a DAG of :class:`Node` objects in SSA form: every node
names its operator kind, its operand nodes, its output shape and dtype, and
any operator-specific attributes (reduce axes, broadcast dims, ...).  The
graph tracks users so compilers can walk both directions, and exposes the
topological order every pass in this repository iterates in.
"""

from __future__ import annotations

import types
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Optional

import numpy as np

from repro.ir.dtypes import DType, F32
from repro.ir.ops import (
    KIND_NAMES,
    OPERATORS,
    OpKind,
    ReduceKind,
    is_compute_intensive,
    is_memory_intensive,
    operator,
)
from repro.ir.shape import Shape

# The attrs of every node built without any: nothing mutates a node's
# attrs after construction, so one read-only empty mapping serves all.
NO_ATTRS: Mapping[str, Any] = types.MappingProxyType({})


class Node:
    """A single operator instance inside a :class:`Graph`.

    Nodes compare by identity; ``node_id`` is unique within the owning graph
    and stable under graph mutation.  A node is slotted (no ``__dict__``),
    and empty ``attrs`` are the shared :data:`NO_ATTRS`.
    """

    __slots__ = ("node_id", "name", "kind", "operands", "shape", "dtype",
                 "attrs")

    def __init__(self, node_id: int, name: str, kind: OpKind,
                 operands: list["Node"], shape: Shape, dtype: DType = F32,
                 attrs: Optional[Mapping[str, Any]] = None):
        self.node_id = node_id
        self.name = name
        self.kind = kind
        self.operands = operands
        self.shape = shape
        self.dtype = dtype
        self.attrs = attrs or NO_ATTRS

    def __reduce__(self):
        return Node, (self.node_id, self.name, self.kind, self.operands,
                      self.shape, self.dtype, self.attrs or None)

    @property
    def num_elements(self) -> int:
        return self.shape.num_elements

    @property
    def reduce_axes(self) -> tuple[int, ...]:
        """Axes collapsed by a REDUCE node."""
        return tuple(self.attrs["axes"])

    @property
    def reduce_kind(self) -> ReduceKind:
        return self.attrs["reduce_kind"]

    @property
    def broadcast_dims(self) -> tuple[int, ...]:
        """Output axes each input axis of a BROADCAST maps to."""
        return tuple(self.attrs["broadcast_dims"])

    def is_row_reduce(self) -> bool:
        """True when this REDUCE collapses the contiguous innermost axes."""
        if self.kind is not OpKind.REDUCE:
            return False
        return self.operands[0].shape.innermost_is(self.reduce_axes)

    def is_column_reduce(self) -> bool:
        """True when this REDUCE collapses non-innermost (strided) axes."""
        return self.kind is OpKind.REDUCE and not self.is_row_reduce()

    def is_memory_intensive(self) -> bool:
        return is_memory_intensive(self.kind)

    def is_compute_intensive(self) -> bool:
        return is_compute_intensive(self.kind)

    @property
    def fp_cost(self) -> float:
        """FP instructions per produced element (cost-model input)."""
        return operator(self.kind).fp_cost

    def __repr__(self) -> str:
        return f"{self.name}{self.shape!r}"


class Graph:
    """A directed acyclic computation graph.

    Nodes are created through the ``add`` method (or, more conveniently,
    through :class:`repro.ir.builder.GraphBuilder`) and are appended in a
    valid topological order by construction — operands must already be graph
    members.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._nodes: list[Node] = []
        self._users: dict[Node, list[Node]] = {}
        self._outputs: list[Node] = []
        self._next_id = 0
        self._name_counts: dict[str, int] = {}
        # Views of ``_nodes``, built on first use and rebuilt when its
        # length changes: graphs are append-only.
        self._order: tuple[Node, ...] = ()
        self._memory: Optional[tuple[Node, ...]] = None
        self._compute: Optional[tuple[Node, ...]] = None

    # -- construction ----------------------------------------------------------

    def add(self,
            kind: OpKind,
            operands: Iterable[Node] = (),
            shape: Shape | Iterable[int] = (),
            dtype: DType = F32,
            name: Optional[str] = None,
            **attrs: Any) -> Node:
        """Append a node.

        Args:
            kind: Operator kind.
            operands: Producer nodes; must already belong to this graph.
            shape: Output shape.
            dtype: Output element type.
            name: Optional base name; a unique suffix is appended.
            **attrs: Operator-specific attributes (``axes``, ``reduce_kind``,
                ``broadcast_dims``, ``value``, ``permutation``, ...).

        Returns:
            The newly created node.

        Raises:
            ValueError: If an operand is foreign or the arity is wrong.
        """
        operands = list(operands)
        for op_node in operands:
            if op_node not in self._users:
                raise ValueError(
                    f"operand {op_node.name} does not belong to graph "
                    f"{self.name}")
        expected_arity = OPERATORS[kind].arity
        if expected_arity >= 0 and len(operands) != expected_arity:
            raise ValueError(
                f"{kind.value} expects {expected_arity} operands, got "
                f"{len(operands)}")
        return self._append(kind, operands, Shape.of(shape), dtype,
                            name or KIND_NAMES[kind], attrs)

    def _append(self, kind: OpKind, operands: list[Node], shape: Shape,
                dtype: DType, name: str, attrs: Mapping[str, Any]) -> Node:
        """``add`` without its checks, for operands, arity and shape
        already known good (a rebuild copying a valid graph); the node
        takes ownership of ``operands`` and ``attrs``."""
        node = Node(self._next_id, self._unique_name(name), kind, operands,
                    shape, dtype, attrs)
        self._next_id += 1
        self._nodes.append(node)
        self._users[node] = []
        for op_node in operands:
            self._users[op_node].append(node)
        return node

    def _unique_name(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return f"{base}.{count}" if count else base

    def mark_output(self, node: Node) -> None:
        """Register ``node`` as a graph output (kept live by all compilers)."""
        if node not in self._users:
            raise ValueError(f"{node.name} does not belong to graph")
        if node not in self._outputs:
            self._outputs.append(node)

    # -- accessors ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, in (valid topological) insertion order (one tuple
        per graph size, not a copy per call)."""
        if len(self._order) != len(self._nodes):
            self._order = tuple(self._nodes)
            self._memory = self._compute = None
        return self._order

    @property
    def outputs(self) -> tuple[Node, ...]:
        """Graph outputs.  Defaults to sink nodes when none were marked."""
        if self._outputs:
            return tuple(self._outputs)
        return tuple(n for n in self._nodes if not self._users[n])

    @property
    def parameters(self) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes if n.kind is OpKind.PARAMETER)

    def users(self, node: Node) -> tuple[Node, ...]:
        """Consumers of ``node``."""
        return tuple(self._users[node])

    def __contains__(self, node: Node) -> bool:
        return node in self._users

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    # -- analyses ---------------------------------------------------------------

    def topological_order(self) -> tuple[Node, ...]:
        """A topological order (insertion order is one by construction)."""
        return self.nodes

    def memory_intensive_nodes(self) -> tuple[Node, ...]:
        """The memory-intensive nodes, scanned once per graph size."""
        nodes = self.nodes
        if self._memory is None:
            self._memory = tuple(n for n in nodes
                                 if is_memory_intensive(n.kind))
        return self._memory

    def compute_intensive_nodes(self) -> tuple[Node, ...]:
        """The compute-intensive nodes, scanned once per graph size."""
        nodes = self.nodes
        if self._compute is None:
            self._compute = tuple(n for n in nodes
                                  if is_compute_intensive(n.kind))
        return self._compute

    def reachable_from(self, roots: Iterable[Node]) -> set[Node]:
        """Transitive operand closure of ``roots`` (roots included)."""
        seen: set[Node] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.operands)
        return seen

    def validate(self) -> None:
        """Check the IR invariants of :func:`repro.ir.verify.verify_graph`.

        Raises:
            ValueError: Listing every violation.
        """
        from repro.ir.verify import verify_graph
        violations = verify_graph(self)
        if violations:
            raise ValueError(f"graph {self.name!r} violates "
                             f"{len(violations)} IR invariant(s): "
                             + "; ".join(violations))

    def stats(self) -> dict[str, int]:
        """Coarse op-census used by Fig 1-style reporting."""
        mem = len(self.memory_intensive_nodes())
        comp = len(self.compute_intensive_nodes())
        return {
            "nodes": len(self._nodes),
            "memory_intensive": mem,
            "compute_intensive": comp,
            "parameters": len(self.parameters),
        }

    def __repr__(self) -> str:
        return (f"Graph({self.name!r}, nodes={len(self._nodes)}, "
                f"outputs={len(self.outputs)})")


def constant_value(node: Node) -> np.ndarray:
    """Materialize the payload of a CONSTANT node as a NumPy array."""
    if node.kind is not OpKind.CONSTANT:
        raise ValueError(f"{node.name} is not a constant")
    value = np.asarray(node.attrs["value"], dtype=node.dtype.to_numpy())
    return np.broadcast_to(value, node.shape.dims)
