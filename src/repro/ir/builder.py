"""Fluent graph construction.

``GraphBuilder`` provides one method per operator with shape/dtype inference
so workload generators read like model code:

    b = GraphBuilder("layer_norm")
    x = b.parameter("x", (batch, hidden))
    mean = b.reduce_mean(x, axes=(1,))
    centered = b.subtract(x, b.broadcast(mean, x.shape, dims=(0,)))
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional, Union

import numpy as np

from repro.ir.dtypes import DType, F32
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind, ReduceKind
from repro.ir.shape import Shape, ShapeLike

Scalar = Union[int, float]

# Module-level aliases of the kinds: under Python 3.11 an ``OpKind.X``
# read runs ``EnumType``'s attribute hook (~190 ns, ~15 ns for an
# alias), and the builder reads one per node it adds.
(_PARAMETER, _CONSTANT, _SELECT, _BROADCAST, _RESHAPE, _TRANSPOSE,
 _REDUCE) = (OpKind.PARAMETER, OpKind.CONSTANT, OpKind.SELECT,
             OpKind.BROADCAST, OpKind.RESHAPE, OpKind.TRANSPOSE,
             OpKind.REDUCE)
(_ADD, _SUBTRACT, _MULTIPLY, _DIVIDE, _MAXIMUM, _MINIMUM, _POWER,
 _COMPARE_GT) = (OpKind.ADD, OpKind.SUBTRACT, OpKind.MULTIPLY,
                 OpKind.DIVIDE, OpKind.MAXIMUM, OpKind.MINIMUM,
                 OpKind.POWER, OpKind.COMPARE_GT)
(_NEGATE, _ABS, _RELU, _EXP, _LOG, _TANH, _SQRT, _RSQRT, _SIGMOID, _ERF,
 _GELU) = (OpKind.NEGATE, OpKind.ABS, OpKind.RELU, OpKind.EXP, OpKind.LOG,
           OpKind.TANH, OpKind.SQRT, OpKind.RSQRT, OpKind.SIGMOID,
           OpKind.ERF, OpKind.GELU)
_DOT, _BATCH_MATMUL, _CONVOLUTION, _RNN_CELL = (
    OpKind.DOT, OpKind.BATCH_MATMUL, OpKind.CONVOLUTION, OpKind.RNN_CELL)

class GraphBuilder:
    """Builds a :class:`Graph` with per-op shape inference."""

    def __init__(self, name: str = "graph"):
        self.graph = Graph(name)

    @classmethod
    def wrap(cls, graph: Graph) -> "GraphBuilder":
        """A builder that appends to an *existing* graph (used by passes
        that extend graphs in place, e.g. autodiff)."""
        builder = cls.__new__(cls)
        builder.graph = graph
        return builder

    # -- sources ----------------------------------------------------------------

    def parameter(self, name: str, shape: ShapeLike,
                  dtype: DType = F32) -> Node:
        """Declare a graph input tensor."""
        return self.graph.add(_PARAMETER, (), Shape.of(shape), dtype,
                              name=name)

    def constant(self, value, shape: ShapeLike = (),
                 dtype: DType = F32, name: str = "constant") -> Node:
        """Embed a literal (scalar or array) into the graph."""
        shape = Shape.of(shape)
        arr = np.asarray(value)
        if shape.rank == 0 and arr.ndim > 0:
            shape = Shape(arr.shape)
        return self.graph.add(_CONSTANT, (), shape, dtype,
                              name=name, value=value)

    # -- element-wise ------------------------------------------------------------

    def _binary(self, kind: OpKind, lhs: Node, rhs: Node,
                name: Optional[str]) -> Node:
        if lhs.shape != rhs.shape:
            raise ValueError(
                f"{kind.value}: operand shapes differ, {lhs.shape!r} vs "
                f"{rhs.shape!r}; broadcast explicitly first")
        return self.graph.add(kind, (lhs, rhs), lhs.shape, lhs.dtype,
                              name=name)

    def _unary(self, kind: OpKind, operand: Node,
               name: Optional[str]) -> Node:
        return self.graph.add(kind, (operand,), operand.shape, operand.dtype,
                              name=name)

    def add(self, lhs: Node, rhs: Node, name: Optional[str] = None) -> Node:
        return self._binary(_ADD, lhs, rhs, name)

    def subtract(self, lhs: Node, rhs: Node,
                 name: Optional[str] = None) -> Node:
        return self._binary(_SUBTRACT, lhs, rhs, name)

    def multiply(self, lhs: Node, rhs: Node,
                 name: Optional[str] = None) -> Node:
        return self._binary(_MULTIPLY, lhs, rhs, name)

    def divide(self, lhs: Node, rhs: Node,
               name: Optional[str] = None) -> Node:
        return self._binary(_DIVIDE, lhs, rhs, name)

    def maximum(self, lhs: Node, rhs: Node,
                name: Optional[str] = None) -> Node:
        return self._binary(_MAXIMUM, lhs, rhs, name)

    def minimum(self, lhs: Node, rhs: Node,
                name: Optional[str] = None) -> Node:
        return self._binary(_MINIMUM, lhs, rhs, name)

    def power(self, lhs: Node, rhs: Node,
              name: Optional[str] = None) -> Node:
        return self._binary(_POWER, lhs, rhs, name)

    def compare_gt(self, lhs: Node, rhs: Node,
                   name: Optional[str] = None) -> Node:
        return self._binary(_COMPARE_GT, lhs, rhs, name)

    def select(self, pred: Node, on_true: Node, on_false: Node,
               name: Optional[str] = None) -> Node:
        if not (pred.shape == on_true.shape == on_false.shape):
            raise ValueError("select operands must share a shape")
        return self.graph.add(_SELECT, (pred, on_true, on_false),
                              on_true.shape, on_true.dtype, name=name)

    def negate(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_NEGATE, operand, name)

    def abs(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_ABS, operand, name)

    def relu(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_RELU, operand, name)

    def exp(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_EXP, operand, name)

    def log(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_LOG, operand, name)

    def tanh(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_TANH, operand, name)

    def sqrt(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_SQRT, operand, name)

    def rsqrt(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_RSQRT, operand, name)

    def sigmoid(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_SIGMOID, operand, name)

    def erf(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_ERF, operand, name)

    def gelu(self, operand: Node, name: Optional[str] = None) -> Node:
        return self._unary(_GELU, operand, name)

    # -- scalar conveniences -------------------------------------------------------

    def scalar_like(self, value: Scalar, template: Node,
                    name: str = "constant") -> Node:
        """A scalar constant broadcast to ``template``'s shape."""
        scalar = self.constant(value, (), template.dtype, name=name)
        if template.shape.rank == 0:
            return scalar
        return self.broadcast(scalar, template.shape, dims=())

    def add_scalar(self, operand: Node, value: Scalar,
                   name: Optional[str] = None) -> Node:
        return self.add(operand, self.scalar_like(value, operand), name)

    def mul_scalar(self, operand: Node, value: Scalar,
                   name: Optional[str] = None) -> Node:
        return self.multiply(operand, self.scalar_like(value, operand), name)

    # -- data movement ---------------------------------------------------------------

    def broadcast(self, operand: Node, shape: ShapeLike,
                  dims: Iterable[int], name: Optional[str] = None) -> Node:
        """XLA-style broadcast: input axis ``i`` maps to output axis
        ``dims[i]``; absent output axes are replicated."""
        return self.graph.add(_BROADCAST, (operand,), Shape.of(shape),
                              operand.dtype, name=name,
                              broadcast_dims=tuple(dims))

    def broadcast_rows(self, operand: Node, shape: ShapeLike,
                       name: Optional[str] = None) -> Node:
        """Broadcast a rank-(n-1) tensor along a new innermost axis.

        This is the paper's canonical broadcast: the output of a row-reduce
        broadcast back across the row it reduced, e.g. `<2>` -> `<2,128>`.
        """
        shape = Shape.of(shape)
        dims = tuple(range(operand.shape.rank))
        return self.broadcast(operand, shape, dims, name)

    def reshape(self, operand: Node, shape: ShapeLike,
                name: Optional[str] = None) -> Node:
        shape = Shape.of(shape)
        if shape.num_elements != operand.num_elements:
            raise ValueError(
                f"reshape from {operand.shape!r} to {shape!r} changes the "
                f"element count")
        return self.graph.add(_RESHAPE, (operand,), shape,
                              operand.dtype, name=name)

    def transpose(self, operand: Node, permutation: Iterable[int],
                  name: Optional[str] = None) -> Node:
        permutation = tuple(permutation)
        if sorted(permutation) != list(range(operand.shape.rank)):
            raise ValueError(f"bad permutation {permutation} for rank "
                             f"{operand.shape.rank}")
        shape = Shape(operand.shape.dim(p) for p in permutation)
        return self.graph.add(_TRANSPOSE, (operand,), shape,
                              operand.dtype, name=name,
                              permutation=permutation)

    # -- reductions -----------------------------------------------------------------

    def reduce(self, operand: Node, axes: Iterable[int],
               kind: ReduceKind = ReduceKind.SUM,
               name: Optional[str] = None) -> Node:
        axes = operand.shape.normalize_axes(axes)
        shape = operand.shape.drop_axes(axes)
        return self.graph.add(_REDUCE, (operand,), shape,
                              operand.dtype, name=name, axes=axes,
                              reduce_kind=kind)

    def reduce_sum(self, operand: Node, axes: Iterable[int],
                   name: Optional[str] = None) -> Node:
        return self.reduce(operand, axes, ReduceKind.SUM, name)

    def reduce_max(self, operand: Node, axes: Iterable[int],
                   name: Optional[str] = None) -> Node:
        return self.reduce(operand, axes, ReduceKind.MAX, name)

    def reduce_mean(self, operand: Node, axes: Iterable[int],
                    name: Optional[str] = None) -> Node:
        return self.reduce(operand, axes, ReduceKind.MEAN, name)

    # -- compute-intensive ---------------------------------------------------------

    def dot(self, lhs: Node, rhs: Node, name: Optional[str] = None) -> Node:
        """2-D matrix multiply `<m,k> x <k,n> -> <m,n>`."""
        if lhs.shape.rank != 2 or rhs.shape.rank != 2:
            raise ValueError("dot expects rank-2 operands")
        if lhs.shape.dim(1) != rhs.shape.dim(0):
            raise ValueError(
                f"dot contraction mismatch: {lhs.shape!r} x {rhs.shape!r}")
        shape = Shape((lhs.shape.dim(0), rhs.shape.dim(1)))
        return self.graph.add(_DOT, (lhs, rhs), shape, lhs.dtype,
                              name=name)

    def batch_matmul(self, lhs: Node, rhs: Node,
                     name: Optional[str] = None) -> Node:
        """Batched matrix multiply `<b,m,k> x <b,k,n> -> <b,m,n>`."""
        if lhs.shape.rank != 3 or rhs.shape.rank != 3:
            raise ValueError("batch_matmul expects rank-3 operands")
        if (lhs.shape.dim(0) != rhs.shape.dim(0)
                or lhs.shape.dim(2) != rhs.shape.dim(1)):
            raise ValueError(
                f"batch_matmul mismatch: {lhs.shape!r} x {rhs.shape!r}")
        shape = Shape((lhs.shape.dim(0), lhs.shape.dim(1), rhs.shape.dim(2)))
        return self.graph.add(_BATCH_MATMUL, (lhs, rhs), shape,
                              lhs.dtype, name=name)

    def convolution(self, inputs: Node, filters: Node,
                    out_shape: ShapeLike,
                    name: Optional[str] = None) -> Node:
        """Opaque convolution divider; numerics are a dense surrogate."""
        return self.graph.add(_CONVOLUTION, (inputs, filters),
                              Shape.of(out_shape), inputs.dtype, name=name)

    def rnn_cell(self, state: Node, inputs: Node, weights: Node,
                 name: Optional[str] = None) -> Node:
        """Opaque recurrent-cell divider producing a new state."""
        return self.graph.add(_RNN_CELL, (state, inputs, weights),
                              state.shape, state.dtype, name=name)

    # -- finishing --------------------------------------------------------------------

    def output(self, *nodes: Node) -> None:
        for node in nodes:
            self.graph.mark_output(node)

    def build(self) -> Graph:
        """Validate and return the constructed graph."""
        self.graph.validate()
        return self.graph
