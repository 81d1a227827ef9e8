"""Operator vocabulary.

Operators are split the way Sec 2.1 of the paper splits them:

* *light element-wise* — add, sub, mul, ... (one or two FP instructions per
  output element);
* *heavy element-wise* — tanh, power, log, exp, ... (tens of instructions per
  element; these are the ops whose redundant recomputation hurts, Fig 5);
* *broadcast* — treated as element-wise but creating one-to-many
  element-level dependencies;
* *reduce* — row- or column-reduce depending on which axes it collapses;
* *compute-intensive* — dot / convolution / batch-matmul.  These divide the
  computation graph into memory-intensive subgraphs and are executed by the
  "cuBLAS/cuDNN" path of the runtime, never fused.
"""

from __future__ import annotations

import dataclasses
import enum


class OpKind(enum.Enum):
    """Every operator the IR supports."""

    # Members are singletons: hash by identity, in C, not through the
    # Python-level ``Enum.__hash__`` on every kind-keyed lookup.
    __hash__ = object.__hash__

    # Graph sources.
    PARAMETER = "parameter"
    CONSTANT = "constant"

    # Light element-wise.
    ADD = "add"
    SUBTRACT = "subtract"
    MULTIPLY = "multiply"
    DIVIDE = "divide"
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    NEGATE = "negate"
    ABS = "abs"
    COMPARE_GT = "compare_gt"
    SELECT = "select"
    RELU = "relu"

    # Heavy element-wise.
    EXP = "exp"
    LOG = "log"
    TANH = "tanh"
    POWER = "power"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    SIGMOID = "sigmoid"
    ERF = "erf"
    GELU = "gelu"

    # Shape / data-movement (memory-intensive, element-wise-like).
    BROADCAST = "broadcast"
    RESHAPE = "reshape"
    TRANSPOSE = "transpose"

    # Reductions.
    REDUCE = "reduce"

    # Compute-intensive dividers.
    DOT = "dot"
    BATCH_MATMUL = "batch_matmul"
    CONVOLUTION = "convolution"
    RNN_CELL = "rnn_cell"


class ReduceKind(enum.Enum):
    """Combining function used by a REDUCE node."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    MEAN = "mean"
    PROD = "prod"


@dataclasses.dataclass(frozen=True)
class Operator:
    """Static metadata for an :class:`OpKind`.

    Attributes:
        kind: The operator this record describes.
        arity: Number of tensor operands (-1 for variadic).
        fp_cost: FP instructions issued per output element, used by the GPU
            cost model (and multiplied by the redundancy factor when a
            baseline compiler recomputes a producer per consumer element).
        heavy: True for expensive element-wise ops — the ops that make
            pattern (2) of Sec 2.3.1 (heavy element-wise followed by
            broadcast) costly to inline.
    """

    kind: OpKind
    arity: int
    fp_cost: float
    heavy: bool = False


_LIGHT = [
    Operator(OpKind.ADD, 2, 1.0),
    Operator(OpKind.SUBTRACT, 2, 1.0),
    Operator(OpKind.MULTIPLY, 2, 1.0),
    Operator(OpKind.DIVIDE, 2, 4.0),
    Operator(OpKind.MAXIMUM, 2, 1.0),
    Operator(OpKind.MINIMUM, 2, 1.0),
    Operator(OpKind.NEGATE, 1, 1.0),
    Operator(OpKind.ABS, 1, 1.0),
    Operator(OpKind.COMPARE_GT, 2, 1.0),
    Operator(OpKind.SELECT, 3, 1.0),
    Operator(OpKind.RELU, 1, 1.0),
]

_HEAVY = [
    Operator(OpKind.EXP, 1, 16.0, heavy=True),
    Operator(OpKind.LOG, 1, 20.0, heavy=True),
    Operator(OpKind.TANH, 1, 24.0, heavy=True),
    Operator(OpKind.POWER, 2, 32.0, heavy=True),
    Operator(OpKind.SQRT, 1, 8.0, heavy=True),
    Operator(OpKind.RSQRT, 1, 8.0, heavy=True),
    Operator(OpKind.SIGMOID, 1, 20.0, heavy=True),
    Operator(OpKind.ERF, 1, 24.0, heavy=True),
    Operator(OpKind.GELU, 1, 28.0, heavy=True),
]

_DATA_MOVEMENT = [
    Operator(OpKind.BROADCAST, 1, 0.0),
    Operator(OpKind.RESHAPE, 1, 0.0),
    Operator(OpKind.TRANSPOSE, 1, 0.0),
]

_OTHER = [
    Operator(OpKind.PARAMETER, 0, 0.0),
    Operator(OpKind.CONSTANT, 0, 0.0),
    Operator(OpKind.REDUCE, 1, 1.0),
    Operator(OpKind.DOT, 2, 0.0),
    Operator(OpKind.BATCH_MATMUL, 2, 0.0),
    Operator(OpKind.CONVOLUTION, 2, 0.0),
    Operator(OpKind.RNN_CELL, 3, 0.0),
]

OPERATORS: dict[OpKind, Operator] = {
    op.kind: op for op in _LIGHT + _HEAVY + _DATA_MOVEMENT + _OTHER
}

LIGHT_ELEMENTWISE = frozenset(op.kind for op in _LIGHT)
HEAVY_ELEMENTWISE = frozenset(op.kind for op in _HEAVY)
ELEMENTWISE = LIGHT_ELEMENTWISE | HEAVY_ELEMENTWISE
DATA_MOVEMENT = frozenset(op.kind for op in _DATA_MOVEMENT)
COMPUTE_INTENSIVE = frozenset({
    OpKind.DOT,
    OpKind.BATCH_MATMUL,
    OpKind.CONVOLUTION,
    OpKind.RNN_CELL,
})
SOURCES = frozenset({OpKind.PARAMETER, OpKind.CONSTANT})

# Memory-intensive = everything the stitching compilers are allowed to fuse.
MEMORY_INTENSIVE = ELEMENTWISE | DATA_MOVEMENT | frozenset({OpKind.REDUCE})

ELEMENTWISE_COSTS: dict[OpKind, float] = {
    kind: OPERATORS[kind].fp_cost for kind in ELEMENTWISE
}


# Kind names by kind: ``OpKind.value`` is an enum descriptor lookup,
# measurably slower than a dict hit on the per-node paths.
KIND_NAMES: dict[OpKind, str] = {kind: kind.value for kind in OpKind}


def operator(kind: OpKind) -> Operator:
    """Return the static metadata record for ``kind``."""
    return OPERATORS[kind]


def is_memory_intensive(kind: OpKind) -> bool:
    """True for ops that belong in memory-intensive subgraphs."""
    return kind in MEMORY_INTENSIVE


def is_compute_intensive(kind: OpKind) -> bool:
    """True for graph-divider ops executed by vendor libraries."""
    return kind in COMPUTE_INTENSIVE


def is_elementwise(kind: OpKind) -> bool:
    """True for (light or heavy) element-wise ops, excluding data movement."""
    return kind in ELEMENTWISE


def is_heavy_elementwise(kind: OpKind) -> bool:
    """True for the expensive element-wise ops of Sec 2.1."""
    return kind in HEAVY_ELEMENTWISE
