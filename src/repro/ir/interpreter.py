"""NumPy reference interpreter.

This is the correctness oracle for every compiler in the repository: a
compiled module — whatever kernels it formed — must produce the same values
as :func:`evaluate` on the same inputs.

Compute-intensive dividers (dot / batch-matmul) use real NumPy matmul;
convolution and RNN cells use deterministic dense surrogates, which is fine
because all compilers dispatch them to the same "vendor library" routine and
never fuse into them.

Graphs are interpreted through a precompiled :class:`GraphProgram`: the
topological order, parameter dtype/shape checks, operand slots, broadcast
dimensions, reduce axes and constant values are all resolved once per
graph, so a repeated :meth:`Interpreter.run` is a flat loop over bound
NumPy closures with no per-call graph traversal.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Mapping, Optional

import numpy as np

from repro.ir.graph import Graph, Node, constant_value
from repro.ir.ops import OpKind, ReduceKind
from repro.store import register


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (Abramowitz & Stegun 7.1.26)."""
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (0.254829592 + t * (-0.284496736 + t *
                (1.421413741 + t * (-1.453152027 + t * 1.061405429))))
    return sign * (1.0 - poly * np.exp(-ax * ax))


def apply_broadcast(value: np.ndarray, out_dims: tuple[int, ...],
                    broadcast_dims: tuple[int, ...]) -> np.ndarray:
    """Apply an XLA-style broadcast to ``value``.

    ``broadcast_dims[i]`` names the output axis input axis ``i`` maps to;
    all other output axes replicate.
    """
    expanded_shape = [1] * len(out_dims)
    for in_axis, out_axis in enumerate(broadcast_dims):
        expanded_shape[out_axis] = value.shape[in_axis]
    reshaped = value.reshape(expanded_shape)
    return np.broadcast_to(reshaped, out_dims)


def _reduce(value: np.ndarray, axes: tuple[int, ...],
            kind: ReduceKind) -> np.ndarray:
    axes_t = tuple(axes)
    if kind is ReduceKind.SUM:
        return value.sum(axis=axes_t)
    if kind is ReduceKind.MAX:
        return value.max(axis=axes_t)
    if kind is ReduceKind.MIN:
        return value.min(axis=axes_t)
    if kind is ReduceKind.MEAN:
        return value.mean(axis=axes_t)
    if kind is ReduceKind.PROD:
        return value.prod(axis=axes_t)
    raise ValueError(f"unknown reduce kind {kind}")


def library_call(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Execute a compute-intensive divider the way cuBLAS/cuDNN would.

    Dot and batch-matmul are exact; convolution and RNN cells are opaque
    deterministic surrogates shared by every compiler.
    """
    if node.kind is OpKind.DOT:
        return inputs[0] @ inputs[1]
    if node.kind is OpKind.BATCH_MATMUL:
        return np.matmul(inputs[0], inputs[1])
    if node.kind is OpKind.CONVOLUTION:
        scale = float(inputs[0].mean()) * float(inputs[1].mean())
        out = np.full(node.shape.dims, scale, dtype=inputs[0].dtype)
        return out
    if node.kind is OpKind.RNN_CELL:
        state, cell_inputs, weights = inputs
        mix = float(cell_inputs.mean()) + float(weights.mean())
        return np.tanh(state + mix).astype(state.dtype)
    raise ValueError(f"{node.kind} is not a library op")


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(
        math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


# Ops whose evaluation depends only on operand values — one bound NumPy
# expression per kind.
_SIMPLE_FNS: dict[OpKind, Callable[[list[np.ndarray]], np.ndarray]] = {
    OpKind.ADD: lambda inputs: inputs[0] + inputs[1],
    OpKind.SUBTRACT: lambda inputs: inputs[0] - inputs[1],
    OpKind.MULTIPLY: lambda inputs: inputs[0] * inputs[1],
    OpKind.DIVIDE: lambda inputs: inputs[0] / inputs[1],
    OpKind.MAXIMUM: lambda inputs: np.maximum(inputs[0], inputs[1]),
    OpKind.MINIMUM: lambda inputs: np.minimum(inputs[0], inputs[1]),
    # Clamp the base away from zero so gradients of |x|^y stay finite.
    OpKind.POWER: lambda inputs: np.power(np.abs(inputs[0]) + 1e-6,
                                          inputs[1]),
    OpKind.COMPARE_GT: lambda inputs: (inputs[0] > inputs[1]).astype(
        inputs[0].dtype),
    OpKind.SELECT: lambda inputs: np.where(inputs[0] != 0, inputs[1],
                                           inputs[2]),
    OpKind.NEGATE: lambda inputs: -inputs[0],
    OpKind.ABS: lambda inputs: np.abs(inputs[0]),
    OpKind.RELU: lambda inputs: np.maximum(inputs[0], 0),
    OpKind.EXP: lambda inputs: np.exp(inputs[0]),
    OpKind.LOG: lambda inputs: np.log(np.abs(inputs[0]) + 1e-6),
    OpKind.TANH: lambda inputs: np.tanh(inputs[0]),
    OpKind.SQRT: lambda inputs: np.sqrt(np.abs(inputs[0])),
    OpKind.RSQRT: lambda inputs: 1.0 / np.sqrt(np.abs(inputs[0]) + 1e-6),
    OpKind.SIGMOID: lambda inputs: 1.0 / (1.0 + np.exp(-inputs[0])),
    OpKind.ERF: lambda inputs: _erf(inputs[0]),
    OpKind.GELU: lambda inputs: _gelu(inputs[0]),
}


def compile_node(node: Node) -> Callable[[list[np.ndarray]], np.ndarray]:
    """Bind ``node``'s evaluation into a closure over its attributes.

    Shape dims, broadcast dimensions, permutations, reduce axes and
    constant values are resolved now, once; the returned callable only
    touches the operand values.  The only node evaluator: the
    interpreter, the kernel executor and constant folding all call it.

    Raises:
        ValueError: If the node kind cannot be evaluated.
    """
    kind = node.kind
    if kind is OpKind.CONSTANT:
        value = constant_value(node)
        return lambda inputs: value
    fn = _SIMPLE_FNS.get(kind)
    if fn is not None:
        return fn
    if kind is OpKind.BROADCAST:
        out_dims = node.shape.dims
        broadcast_dims = node.broadcast_dims
        return lambda inputs: apply_broadcast(inputs[0], out_dims,
                                              broadcast_dims)
    if kind is OpKind.RESHAPE:
        dims = node.shape.dims
        return lambda inputs: inputs[0].reshape(dims)
    if kind is OpKind.TRANSPOSE:
        permutation = node.attrs["permutation"]
        return lambda inputs: inputs[0].transpose(permutation)
    if kind is OpKind.REDUCE:
        axes = tuple(node.reduce_axes)
        reduce_kind = node.reduce_kind
        return lambda inputs: _reduce(inputs[0], axes, reduce_kind)
    if node.is_compute_intensive():
        return lambda inputs: library_call(node, inputs)
    raise ValueError(f"cannot evaluate {kind}")


class GraphProgram:
    """A graph precompiled for repeated interpretation.

    Built once per graph: the topological order is walked a single time,
    every node gets an integer value slot and a bound closure
    (:func:`compile_node`), and parameter dtype/shape requirements are
    captured up front.  :meth:`run` is then a flat loop — no graph
    traversal, no operand dict lookups, no attribute resolution.
    """

    __slots__ = ("graph", "_params", "_ops", "_outputs", "_num_slots")

    def __init__(self, graph: Graph):
        self.graph = graph
        order = graph.topological_order()
        slot_of = {node: slot for slot, node in enumerate(order)}
        self._num_slots = len(order)
        self._params: list[tuple[int, str, np.dtype, tuple[int, ...]]] = []
        self._ops: list[tuple[int, tuple[int, ...],
                              Callable[[list[np.ndarray]], np.ndarray],
                              np.dtype]] = []
        for node in order:
            if node.kind is OpKind.PARAMETER:
                self._params.append((slot_of[node], node.name,
                                     node.dtype.to_numpy(),
                                     node.shape.dims))
            else:
                self._ops.append((
                    slot_of[node],
                    tuple(slot_of[op] for op in node.operands),
                    compile_node(node),
                    node.dtype.to_numpy(),
                ))
        self._outputs = tuple((out.name, slot_of[out])
                              for out in graph.outputs)

    def run(self, feeds: Mapping[str, np.ndarray],
            ) -> dict[str, np.ndarray]:
        """Evaluate the graph (same contract as :meth:`Interpreter.run`)."""
        values: list[Optional[np.ndarray]] = [None] * self._num_slots
        for slot, name, dtype, dims in self._params:
            if name not in feeds:
                raise KeyError(f"missing feed for parameter {name}")
            arr = np.asarray(feeds[name], dtype=dtype)
            if arr.shape != dims:
                raise ValueError(
                    f"feed for {name} has shape {arr.shape}, "
                    f"expected {dims}")
            values[slot] = arr
        for slot, operand_slots, fn, dtype in self._ops:
            result = fn([values[i] for i in operand_slots])
            values[slot] = np.asarray(result, dtype=dtype)
        return {name: values[slot] for name, slot in self._outputs}


# Programs are pure derivations of a (built, immutable) graph, so one per
# graph object serves every Interpreter/evaluate call in the process —
# same lifetime assumption as the fingerprint memo in repro.ir.fingerprint.
_PROGRAMS: "weakref.WeakKeyDictionary[Graph, GraphProgram]" = register(
    "interpreter-programs", weakref.WeakKeyDictionary())


def graph_program(graph: Graph) -> GraphProgram:
    """The memoized :class:`GraphProgram` for ``graph``."""
    program = _PROGRAMS.get(graph)
    if program is None:
        program = GraphProgram(graph)
        _PROGRAMS[graph] = program
    return program


class Interpreter:
    """Evaluates a whole graph in topological order."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._program: Optional[GraphProgram] = None

    def run(self, feeds: Mapping[str, np.ndarray],
            ) -> dict[str, np.ndarray]:
        """Evaluate the graph.

        Args:
            feeds: Parameter name -> input array.  Parameter names are the
                *base* names given to :meth:`GraphBuilder.parameter`.

        Returns:
            Output node name -> value, for every graph output.

        Raises:
            KeyError: If a parameter has no feed.
        """
        if self._program is None:
            self._program = graph_program(self.graph)
        return self._program.run(feeds)


def evaluate(graph: Graph, feeds: Mapping[str, np.ndarray],
             ) -> dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(graph).run(feeds)


def random_feeds(graph: Graph, seed: int = 0,
                 scale: float = 1.0) -> dict[str, np.ndarray]:
    """Deterministic random inputs for every parameter of ``graph``."""
    rng = np.random.default_rng(seed)
    feeds = {}
    for param in graph.parameters:
        arr = rng.standard_normal(param.shape.dims) * scale
        feeds[param.name] = arr.astype(param.dtype.to_numpy())
    return feeds
