"""Kernel and step objects — the output of every compiler.

A compiled module is an ordered list of steps:

* :class:`Kernel` — a fused/stitched GPU kernel over memory-intensive
  nodes, carrying the thread mapping, buffer placements and per-node
  recompute factors its codegen strategy implies;
* :class:`LibraryCall` — a compute-intensive node dispatched to the
  "cuBLAS/cuDNN" path;
* :class:`MemcpyCall` — a CUDA memcpy/memset activity (Table 3's CPY row).

Every step exposes the values it loads (``inputs``) and stores
(``outputs``).
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Union

from repro.codegen.schedule import ThreadMapping
from repro.gpu.memory import MemorySpace
from repro.ir.graph import Node
from repro.ir.ops import OpKind


@dataclasses.dataclass
class Kernel:
    """One simulated GPU kernel.

    Attributes:
        name: Display name (usually derived from the root node).
        nodes: Computed nodes, topologically ordered; a node may appear in
            several kernels when a compiler's codegen duplicates producers
            across consumers (operator-level redundancy, Sec 2.3.1).
        inputs: External values loaded from global memory (parameters,
            weights, or earlier kernels' outputs).
        outputs: Values this kernel stores to global memory.
        mapping: Thread-mapping schedule of the dominant operator.
        placements: Memory space of cross-group intermediates (AStitch's
            regional/global schemes).  Nodes absent from the dict are
            register-resident (local scheme).
        redundancy: Recompute factor per node; 1.0 means computed once per
            element, >1 means the codegen strategy re-evaluates the
            producer that many times (per-element inlining across a
            one-to-many dependency).
        input_read_factors: Extra load factor per input; >1 means the value
            is loaded from global memory once per consuming schedule group
            because per-thread register reuse is impossible across
            incompatible schedules (the effect dominant merging removes,
            Sec 4.3 step 2).
        num_global_barriers: Device-wide barriers inside the kernel.
        extra_atomic_rounds: Cross-block atomic rounds beyond what the
            mapping itself implies.
        regs_per_thread: Register footprint (set by launch configuration).
        smem_per_block: Shared-memory footprint in bytes per block.
    """

    name: str
    nodes: tuple[Node, ...]
    inputs: tuple[Node, ...]
    outputs: tuple[Node, ...]
    mapping: ThreadMapping
    placements: dict[Node, MemorySpace] = dataclasses.field(
        default_factory=dict)
    redundancy: dict[Node, float] = dataclasses.field(default_factory=dict)
    input_read_factors: dict[Node, float] = dataclasses.field(
        default_factory=dict)
    num_global_barriers: int = 0
    extra_atomic_rounds: int = 0
    regs_per_thread: int = 32
    smem_per_block: int = 0

    def __getstate__(self):
        # Derived memos (the kernel_cost_inputs cache) never persist:
        # a pickled kernel in the compile cache must re-derive under the
        # code that loads it, not the code that stored it.
        state = self.__dict__.copy()
        state.pop("_cost_inputs", None)
        return state

    def placement(self, node: Node) -> MemorySpace:
        return self.placements.get(node, MemorySpace.REGISTER)

    def redundancy_of(self, node: Node) -> float:
        return self.redundancy.get(node, 1.0)

    def __repr__(self) -> str:
        return (f"Kernel({self.name!r}, nodes={len(self.nodes)}, "
                f"{self.mapping.describe()})")


@dataclasses.dataclass
class LibraryCall:
    """A compute-intensive node executed by a vendor library."""

    node: Node

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def inputs(self) -> tuple[Node, ...]:
        """Values the call loads (its node's operands)."""
        return tuple(self.node.operands)

    @property
    def outputs(self) -> tuple[Node, ...]:
        """Values the call stores (its node)."""
        return (self.node,)

    def flops(self) -> float:
        """Nominal FLOPs of the library call (for the roofline price)."""
        node = self.node
        if node.kind is OpKind.DOT:
            m, n = node.shape.dims
            k = node.operands[0].shape.dim(1)
            return 2.0 * m * n * k
        if node.kind is OpKind.BATCH_MATMUL:
            b, m, n = node.shape.dims
            k = node.operands[0].shape.dim(2)
            return 2.0 * b * m * n * k
        if node.kind is OpKind.CONVOLUTION:
            # Dense surrogate: assume a 9-tap filter per output element.
            return 18.0 * node.num_elements
        if node.kind is OpKind.RNN_CELL:
            hidden = node.shape.dims[-1] if node.shape.rank else 1
            return 2.0 * node.num_elements * hidden
        return 2.0 * node.num_elements

    def bytes_moved(self) -> float:
        total = self.node.num_elements * self.node.dtype.nbytes
        for op in self.node.operands:
            total += op.num_elements * op.dtype.nbytes
        return float(total)


@dataclasses.dataclass
class MemcpyCall:
    """A CUDA memcpy/memset activity issued by the framework/runtime."""

    nbytes: int
    tag: str = "memcpy"

    # A memcpy moves no graph value, so no step waits on it.
    inputs: ClassVar[tuple[Node, ...]] = ()
    outputs: ClassVar[tuple[Node, ...]] = ()

    @property
    def name(self) -> str:
        return self.tag


Step = Union[Kernel, LibraryCall, MemcpyCall]
