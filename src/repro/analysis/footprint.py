"""Device memory footprint of a compiled module.

Walks the step sequence tracking which values are live (stored, with a
consumer still ahead), giving the peak intermediate-tensor memory one
iteration needs.  Stitching lowers this directly: values kept in
registers/shared memory never occupy global buffers at all — the same
effect that lets AStitch avoid CUDA Graph's per-kernel metadata overhead
(Sec 7's comparison with [35]).
"""

from __future__ import annotations

import dataclasses

from repro.codegen.kernel import Kernel
from repro.compilers.base import CompiledModule
from repro.gpu.memory import MemorySpace
from repro.ir.ops import OpKind


@dataclasses.dataclass
class FootprintReport:
    """Memory accounting for one iteration.

    Attributes:
        peak_intermediate_bytes: Max bytes of live intermediate tensors
            (excludes parameters and graph outputs, which any execution
            must hold).
        total_allocated_bytes: Sum of all intermediate allocations.
        materialized_values: Intermediate tensors that touched global
            memory at least once.
        scratch_bytes: Global scratch for in-kernel global-scheme values
            (included in the peak while their kernel runs).
    """

    peak_intermediate_bytes: int
    total_allocated_bytes: int
    materialized_values: int
    scratch_bytes: int


def measure_footprint(module: CompiledModule) -> FootprintReport:
    """Compute the intermediate-memory footprint of ``module``."""
    graph = module.graph
    outputs = set(graph.outputs)

    # Last step index that reads each value.
    last_reader: dict = {}
    for idx, step in enumerate(module.steps):
        for value in step.inputs:
            last_reader[value] = idx

    live_bytes = 0
    peak = 0
    total = 0
    materialized = 0
    scratch_peak = 0
    live: list[tuple[int, int]] = []  # (last reader idx, nbytes)

    for idx, step in enumerate(module.steps):
        # In-kernel global scratch exists only while the kernel runs.
        scratch = 0
        if isinstance(step, Kernel):
            stored = set(step.outputs)
            for node, space in step.placements.items():
                if space is MemorySpace.GLOBAL and node not in stored:
                    scratch += node.num_elements * node.dtype.nbytes
        scratch_peak = max(scratch_peak, scratch)
        peak = max(peak, live_bytes + scratch)

        for value in step.outputs:
            if value.kind is OpKind.PARAMETER or value in outputs:
                continue
            nbytes = value.num_elements * value.dtype.nbytes
            reader = last_reader.get(value)
            if reader is None:
                continue  # dead store; freed immediately
            materialized += 1
            total += nbytes
            live_bytes += nbytes
            live.append((reader, nbytes))
        peak = max(peak, live_bytes + scratch)

        # Free values whose last reader has now run.
        still_live = []
        for reader, nbytes in live:
            if reader <= idx:
                live_bytes -= nbytes
            else:
                still_live.append((reader, nbytes))
        live = still_live

    return FootprintReport(
        peak_intermediate_bytes=peak,
        total_allocated_bytes=total,
        materialized_values=materialized,
        scratch_bytes=scratch_peak,
    )
