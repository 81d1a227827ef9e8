"""Static verification of compiled modules.

A lint pass over a :class:`~repro.compilers.base.CompiledModule` that
checks the invariants every backend must uphold — without executing
anything.  Used by the test suite's fuzzers and available to users as a
debugging aid (``verify_module(module)`` raises with a readable report).

Checked invariants:

* **coverage** — every memory-intensive node is computed by some kernel
  and every compute-intensive node has a library call;
* **dataflow** — steps only read values some earlier step stored (or
  parameters/constants), and every graph output is stored;
* **single store** — no value is stored by two different steps;
* **resources** — block size, shared memory and register bounds within
  the device's limits; barrier kernels fit one wave;
* **kernel internals** — kernel node lists are topologically ordered and
  each kernel's declared outputs are among its nodes.
"""

from __future__ import annotations

from repro.compilers.base import CompiledModule
from repro.gpu.spec import GPUSpec, V100
from repro.ir.ops import OpKind


class ModuleVerificationError(AssertionError):
    """One or more module invariants are violated."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__(
            "module verification failed:\n  " + "\n  ".join(errors))


def collect_violations(module: CompiledModule,
                       spec: GPUSpec = V100) -> list[str]:
    """Return every invariant violation (empty list = clean)."""
    errors: list[str] = []
    graph = module.graph

    # Coverage.
    covered = set()
    for kernel in module.kernels():
        covered.update(kernel.nodes)
    for node in graph.memory_intensive_nodes():
        if node not in covered:
            errors.append(f"memory-intensive node {node.name} is in no "
                          f"kernel")
    called = {step.node for step in module.library_calls()}
    for node in graph.compute_intensive_nodes():
        if node not in called:
            errors.append(f"compute-intensive node {node.name} has no "
                          f"library call")

    # Dataflow with single-store.
    available = set(graph.parameters)
    producers: dict = {}
    for step in module.steps:
        for value in step.inputs:
            if value in available:
                continue
            if value.kind is OpKind.CONSTANT:
                continue
            errors.append(f"step {step.name} reads {value.name} before "
                          f"any store")
        for value in step.outputs:
            if value in producers and producers[value] is not step:
                errors.append(f"{value.name} stored by both "
                              f"{producers[value].name} and {step.name}")
            producers[value] = step
            available.add(value)
    for out in graph.outputs:
        if out not in available:
            errors.append(f"graph output {out.name} never stored")

    # Resources and kernel internals.
    for kernel in module.kernels():
        mapping = kernel.mapping
        if mapping.block_size > spec.max_threads_per_block:
            errors.append(f"{kernel.name}: block {mapping.block_size} "
                          f"exceeds {spec.max_threads_per_block}")
        if kernel.smem_per_block > spec.shared_memory_per_block:
            errors.append(f"{kernel.name}: {kernel.smem_per_block} B "
                          f"shared memory exceeds the per-block limit")
        if kernel.regs_per_thread > spec.max_registers_per_thread:
            errors.append(f"{kernel.name}: register bound "
                          f"{kernel.regs_per_thread} exceeds hardware")
        if kernel.num_global_barriers:
            wave = spec.blocks_per_wave(mapping.block_size,
                                        kernel.regs_per_thread,
                                        kernel.smem_per_block)
            if mapping.grid_size > wave:
                errors.append(
                    f"{kernel.name}: grid {mapping.grid_size} exceeds "
                    f"one wave ({wave}) but contains a global barrier")
        ids = [n.node_id for n in kernel.nodes]
        if ids != sorted(ids):
            errors.append(f"{kernel.name}: nodes not topologically "
                          f"ordered")
        node_set = set(kernel.nodes)
        for out in kernel.outputs:
            if out not in node_set:
                errors.append(f"{kernel.name}: output {out.name} not "
                              f"among its nodes")
        for placed in kernel.placements:
            if placed not in node_set:
                errors.append(f"{kernel.name}: placement for foreign "
                              f"node {placed.name}")
        for factored in kernel.input_read_factors:
            if factored not in set(kernel.inputs):
                errors.append(f"{kernel.name}: read factor for "
                              f"{factored.name}, which is not an input")
    return errors


def verify_module(module: CompiledModule, spec: GPUSpec = V100) -> None:
    """Raise :class:`ModuleVerificationError` on any violation."""
    errors = collect_violations(module, spec)
    if errors:
        raise ModuleVerificationError(errors)
