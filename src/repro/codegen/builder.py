"""Kernel construction and cost-input derivation.

``make_kernel`` carves a node set out of a graph, infers the values the
kernel must load and store, and packages the codegen decisions.
``kernel_cost_inputs`` turns a kernel into the quantities the GPU cost
model prices: bytes moved, FP instructions (with redundancy), shared
memory, barriers, atomics.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Optional

from repro.codegen.kernel import Kernel
from repro.codegen.schedule import ThreadMapping
from repro.gpu.costmodel import KernelCostInputs
from repro.gpu.memory import MemorySpace
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind


def _is_immediate(node: Node) -> bool:
    """Scalar constants are compiled into the instruction stream."""
    return node.kind is OpKind.CONSTANT and node.shape.num_elements == 1


def make_kernel(graph: Graph,
                nodes: Iterable[Node],
                mapping: ThreadMapping,
                name: Optional[str] = None,
                placements: Optional[dict[Node, MemorySpace]] = None,
                redundancy: Optional[dict[Node, float]] = None,
                outputs: Optional[Iterable[Node]] = None,
                num_global_barriers: int = 0) -> Kernel:
    """Build a kernel from a set of graph nodes.

    Args:
        graph: Owning graph (used to infer external users).
        nodes: The nodes this kernel computes.  Parameters are not allowed
            (they are inputs, not computation).
        mapping: Thread-mapping schedule.
        name: Kernel name; defaults to the last node's name.
        placements: AStitch buffer placements for cross-group values.
        redundancy: Per-node recompute factors.
        outputs: Values stored to global memory.  When omitted, every node
            with a user outside the kernel (or marked as a graph output)
            is stored — compilers that *duplicate* producers across kernels
            must pass outputs explicitly.
        num_global_barriers: Device-wide barriers inside this kernel.

    Raises:
        ValueError: If ``nodes`` is empty or contains a parameter.
    """
    node_list = sorted(set(nodes), key=lambda n: n.node_id)
    if not node_list:
        raise ValueError("kernel with no nodes")
    node_set = set(node_list)
    for node in node_list:
        if node.kind is OpKind.PARAMETER:
            raise ValueError(f"parameter {node.name} cannot be computed "
                             f"inside a kernel")

    inputs: list[Node] = []
    seen_inputs: set[Node] = set()
    for node in node_list:
        for operand in node.operands:
            if operand in node_set or operand in seen_inputs:
                continue
            if _is_immediate(operand):
                continue
            seen_inputs.add(operand)
            inputs.append(operand)

    if outputs is None:
        graph_outputs = set(graph.outputs)
        outputs = [
            n for n in node_list
            if n in graph_outputs
            or any(u not in node_set for u in graph.users(n))
        ]
    else:
        outputs = sorted(set(outputs), key=lambda n: n.node_id)

    return Kernel(
        name=name or f"k_{node_list[-1].name}",
        nodes=tuple(node_list),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        mapping=mapping,
        placements=dict(placements or {}),
        redundancy=dict(redundancy or {}),
        num_global_barriers=num_global_barriers,
    )


def node_work(node: Node) -> float:
    """FP instructions to compute ``node`` once, without redundancy.

    Reductions pay one combine per *input* element; element-wise ops pay
    their per-element cost per *output* element; pure data movement is
    free of FP work (it still moves bytes).
    """
    if node.kind is OpKind.REDUCE:
        return float(node.operands[0].num_elements) * node.fp_cost
    if node.kind in (OpKind.BROADCAST, OpKind.RESHAPE, OpKind.TRANSPOSE,
                     OpKind.PARAMETER, OpKind.CONSTANT):
        return 0.0
    return float(node.num_elements) * node.fp_cost


def _per_block_bytes(node: Node, grid_size: int) -> int:
    """A block's share of a tensor, for shared-memory footprints."""
    share = math.ceil(node.num_elements / max(1, grid_size))
    return share * node.dtype.nbytes


def kernel_smem_bytes(kernel: Kernel) -> int:
    """Shared memory one block needs for the kernel's regional buffers."""
    total = 0
    for node, space in kernel.placements.items():
        if space is MemorySpace.SHARED:
            total += _per_block_bytes(node, kernel.mapping.grid_size)
    return total


def kernel_cost_inputs(kernel: Kernel) -> KernelCostInputs:
    """Derive the cost-model inputs implied by a kernel's decisions.

    Memoized per kernel object: the derivation walks every node, and the
    pricing layer asks for it once when fingerprinting a module's plan
    key and again when pricing — kernels are immutable once a compiler
    returns them, so the first derivation is kept on the kernel.

    Traffic accounting:
    * every kernel input is loaded once (caches collapse broadcast re-reads
      of small operands);
    * every kernel output is stored once;
    * global-scheme intermediates are stored once and loaded once more by
      their in-kernel consumers — on-chip traffic (register/shared) is
      free of DRAM transactions, which is exactly the hierarchical-data-
      reuse advantage of Sec 3.2.

    Instruction accounting: each node's work times its recompute factor —
    per-element inlining across one-to-many dependencies shows up here as
    ``redundancy > 1`` (the Fig 5 effect).
    """
    cached = getattr(kernel, "_cost_inputs", None)
    if cached is not None:
        return cached
    inputs = _derive_cost_inputs(kernel)
    kernel._cost_inputs = inputs
    return inputs


def _derive_cost_inputs(kernel: Kernel) -> KernelCostInputs:
    if all(n.kind is OpKind.RESHAPE for n in kernel.nodes):
        # A pure-reshape kernel is a metadata operation: frameworks alias
        # the buffer instead of copying it.
        return KernelCostInputs(
            grid_size=1, block_size=32, bytes_read=0.0, bytes_written=0.0,
            fp_instructions=0.0)

    bytes_read = 0.0
    for node in kernel.inputs:
        factor = kernel.input_read_factors.get(node, 1.0)
        bytes_read += node.num_elements * node.dtype.nbytes * factor

    bytes_written = 0.0
    output_set = set(kernel.outputs)
    for node in kernel.outputs:
        bytes_written += node.num_elements * node.dtype.nbytes

    fp = 0.0
    for node in kernel.nodes:
        fp += node_work(node) * kernel.redundancy_of(node)
        if kernel.placement(node) is MemorySpace.GLOBAL:
            nbytes = node.num_elements * node.dtype.nbytes
            if node not in output_set:
                bytes_written += nbytes
            bytes_read += nbytes

    smem = kernel.smem_per_block or kernel_smem_bytes(kernel)

    atomic_rounds = (kernel.extra_atomic_rounds
                     + int(kernel.mapping.accumulates))

    return KernelCostInputs(
        grid_size=kernel.mapping.grid_size,
        block_size=kernel.mapping.block_size,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        fp_instructions=fp,
        regs_per_thread=kernel.regs_per_thread,
        smem_per_block=smem,
        num_global_barriers=kernel.num_global_barriers,
        num_atomic_rounds=atomic_rounds,
    )
