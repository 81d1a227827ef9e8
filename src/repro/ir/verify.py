"""IR validation.

:func:`verify_graph` checks the invariants every graph builder and every
compiler pass in this repository is entitled to assume — and a pass
must re-establish when it rebuilds a graph:

* **dataflow** — operands belong to the graph and precede their
  consumers (the node list is a topological order by construction, so a
  rebuilt graph that violates this has a cycle or a dangling edge);
  outputs are members; source ops have no operands; every other op has
  its declared arity;
* **shape** — element-wise operands match their consumer's shape
  (broadcasts are explicit nodes in this IR), reduces declare the shape
  their axes imply, broadcasts have consistent dimension maps, reshapes
  preserve the element count;
* **dtype** — element-wise operands agree with their consumer's dtype
  (AMP conversion rewrites whole islands, never single edges);
  constants carry a payload of the declared element count, or one
  element that the constant splats over its shape.

``verify_graph`` returns the violations (empty list = valid) so tooling
can report them all.  :meth:`Graph.validate
<repro.ir.graph.Graph.validate>` raises them as one ``ValueError``, and
:func:`repro.pipeline.verify.check_graph` as a
:class:`~repro.compilers.base.CompilationError` carrying the pass
context, which is what the :class:`~repro.pipeline.manager.PassManager`
runs between passes when validation is on.
"""

from __future__ import annotations

import numpy as np

from repro.ir.graph import Graph, Node
from repro.ir.ops import ELEMENTWISE, OPERATORS, SOURCES, OpKind
from repro.ir.shape import broadcast_result_shape

# Module-level aliases: an ``OpKind.X`` read runs ``EnumType``'s
# attribute hook under Python 3.11, and every node is checked.
_REDUCE, _BROADCAST, _RESHAPE, _TRANSPOSE, _CONSTANT = (
    OpKind.REDUCE, OpKind.BROADCAST, OpKind.RESHAPE, OpKind.TRANSPOSE,
    OpKind.CONSTANT)

# SELECT's predicate operand is boolean-like; only the value operands
# must agree with the result dtype.
_DTYPE_EXEMPT_OPERANDS = {OpKind.SELECT: (0,)}

# Per kind: (arity, element-wise, source, operand positions exempt from
# the dtype check).  One lookup per node: every graph build validates,
# so this runs over every node of every workload graph.
_RULES = {
    kind: (op.arity, kind in ELEMENTWISE, kind in SOURCES,
           _DTYPE_EXEMPT_OPERANDS.get(kind, ()))
    for kind, op in OPERATORS.items()
}


def _check_elementwise(node: Node, exempt: tuple[int, ...],
                       violations: list[str]) -> None:
    shape, dtype = node.shape, node.dtype
    for operand in node.operands:
        if operand.shape is not shape and operand.shape != shape:
            violations.append(
                f"{node.name}: element-wise {node.kind.value} over "
                f"operand {operand.name}{operand.shape!r} does not "
                f"match result shape {node.shape!r}")
    for index, operand in enumerate(node.operands):
        if index in exempt:
            continue
        if operand.dtype is not dtype and operand.dtype != dtype:
            violations.append(
                f"{node.name}: {node.kind.value} operand {operand.name} "
                f"is {operand.dtype.name}, result declared "
                f"{node.dtype.name}")


def _check_constant(node: Node, violations: list[str]) -> None:
    value = node.attrs.get("value")
    if value is None:
        violations.append(f"{node.name}: constant has no value")
        return
    # A one-element payload is a splat: ``constant_value`` broadcasts it
    # over the declared shape.
    size = np.asarray(value).size
    if size != 1 and size != node.num_elements:
        violations.append(
            f"{node.name}: constant payload has {size} elements, shape "
            f"declares {node.num_elements}")


def _check_node_shapes(node: Node, violations: list[str]) -> None:
    """The shape rules of the ops that are not element-wise."""
    if node.kind is _REDUCE:
        in_shape = node.operands[0].shape
        axes = node.reduce_axes
        if any(axis < 0 or axis >= in_shape.rank for axis in axes):
            violations.append(
                f"{node.name}: reduce axes {axes} out of range for "
                f"operand rank {in_shape.rank}")
            return
        expected = in_shape.drop_axes(axes)
        if expected != node.shape:
            violations.append(
                f"{node.name}: reduce of {in_shape!r} over axes {axes} "
                f"should give {expected!r}, declared {node.shape!r}")
    elif node.kind is _BROADCAST:
        try:
            broadcast_result_shape(node.operands[0].shape, node.shape,
                                   node.broadcast_dims)
        except (KeyError, ValueError) as error:
            violations.append(f"{node.name}: invalid broadcast "
                              f"({error})")
    elif node.kind is _RESHAPE:
        if node.num_elements != node.operands[0].num_elements:
            violations.append(
                f"{node.name}: reshape changes element count "
                f"({node.operands[0].num_elements} -> "
                f"{node.num_elements})")
    elif node.kind is _TRANSPOSE:
        perm = tuple(node.attrs.get("permutation", ()))
        if sorted(perm) != list(range(node.operands[0].shape.rank)):
            violations.append(
                f"{node.name}: transpose permutation {perm} is not a "
                f"permutation of rank {node.operands[0].shape.rank}")


def verify_graph(graph: Graph) -> list[str]:
    """Check shape/dtype/dataflow invariants; return all violations."""
    violations: list[str] = []
    nodes = graph.nodes
    members = {node: position for position, node in enumerate(nodes)}
    if len({node.name for node in nodes}) != len(nodes):
        names: set[str] = set()
        for node in nodes:
            if node.name in names:
                violations.append(f"duplicate node name {node.name!r}")
            names.add(node.name)

    for here, node in enumerate(nodes):
        arity, elementwise, source, exempt = _RULES[node.kind]
        operands = node.operands
        if arity >= 0 and len(operands) != arity:
            violations.append(
                f"{node.name}: {node.kind.value} expects {arity} "
                f"operands, has {len(operands)}")
            continue
        dangling = False
        for operand in operands:
            at = members.get(operand)
            if at is None:
                violations.append(f"{node.name}: operand "
                                  f"{operand.name} is not in the graph")
                dangling = True
            elif at >= here:
                violations.append(
                    f"{node.name}: operand {operand.name} does not "
                    f"precede its consumer (dataflow order broken)")
        if dangling:
            continue
        if source:
            if operands:
                violations.append(f"{node.name}: source op has operands")
            if node.kind is _CONSTANT:
                _check_constant(node, violations)
        elif elementwise:
            _check_elementwise(node, exempt, violations)
        elif operands:
            _check_node_shapes(node, violations)

    for output in graph.outputs:
        if output not in members:
            violations.append(f"output {output.name} is not in the "
                              f"graph")
    return violations
