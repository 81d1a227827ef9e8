"""Ansor (TVM auto-scheduler) model.

Ansor keeps TVM's fusion scope — it tunes *schedules*, not fusion
decisions — so it inherits both the reduce-bounded kernels and the
per-element inlining redundancy.  What tuning buys is a good thread
mapping per kernel: we model the search by pricing a candidate schedule
set with the device cost model and keeping the best, which is exactly
what 2000 measured trials converge to.

Ansor's search space contains block-size choices and row packing, but not
AStitch's cross-block task splitting (that requires atomics across
cooperating blocks) nor any cross-kernel stitching — so it still forms
~2x the kernels AStitch does on BERT (Sec 6.2: 53% fewer kernels for
AStitch) and loses the launch-overhead war.
"""

from __future__ import annotations

from repro.compilers.base import Compiler
from repro.compilers.common import MappingFn, tvm_fusion_roots
from repro.codegen.builder import kernel_cost_inputs, make_kernel
from repro.codegen import mapping as mappings
from repro.codegen.schedule import ThreadMapping
from repro.gpu.costmodel import cost_model_for
from repro.gpu.spec import GPUSpec
from repro.ir.graph import Node
from repro.ir.ops import OpKind
from repro.pipeline.base import CompileState, Pipeline
from repro.pipeline.lowering import (
    FinalizeModulePass,
    FusionKernelFormationPass,
    standard_tail,
)

# Modeled auto-tuning cost: 2000 measurement trials at ~1 s each.
ANSOR_TUNING_SECONDS = 2000.0


def _candidate_mappings(root: Node, spec: GPUSpec) -> list[ThreadMapping]:
    """The schedule space Ansor searches for one fused kernel."""
    candidates: list[ThreadMapping] = []
    if root.kind is OpKind.REDUCE:
        rows, width = mappings.reduce_geometry(root.operands[0].shape,
                                               root.reduce_axes)
        if root.is_row_reduce():
            candidates.append(mappings.naive_row_reduce(rows, width, spec))
            # Horizontal row packing is inside Ansor's space; task
            # splitting (cross-block atomics) is not.  wave_limit=rows
            # disables both splitting and vertical packing.
            candidates.append(
                mappings.adaptive_row_reduce(rows, width, spec,
                                             wave_limit=max(1, rows)))
        else:
            candidates.append(
                mappings.naive_column_reduce(rows, width, spec))
    else:
        n = max(1, root.num_elements)
        for block in (128, 256, 512, 1024):
            if block <= spec.max_threads_per_block:
                candidates.append(mappings.naive_elementwise(n, spec, block))
    return candidates


def tuned_mapping_factory(state: CompileState) -> MappingFn:
    """The cost-model schedule search, closed over one compile's graph
    and device."""
    graph, spec = state.graph, state.spec
    # The shared memoized model: tuning probes repeat launch
    # configurations heavily, within a compile and across compiles.
    cost_model = cost_model_for(spec)

    def tuned_mapping(root: Node) -> ThreadMapping:
        # One vectorized pricing pass over the whole candidate set;
        # min keeps the *first* of tied candidates.
        candidates = _candidate_mappings(root, spec)
        probes = [kernel_cost_inputs(make_kernel(graph, [root],
                                                 candidate,
                                                 outputs=[root]))
                  for candidate in candidates]
        priced = cost_model.price_batch(probes)
        return min(zip(priced, candidates),
                   key=lambda pair: pair[0].duration)[1]

    return tuned_mapping


class AnsorCompiler(Compiler):
    """TVM fusion scope with cost-model-tuned per-kernel schedules."""

    name = "Ansor"

    def build_pipeline(self) -> Pipeline:
        formation = FusionKernelFormationPass(
            "ansor-schedule-search", tvm_fusion_roots,
            tuned_mapping_factory, mapping_label="cost-model-tuned")
        finalize = FinalizeModulePass(self.name,
                                      fixed_seconds=ANSOR_TUNING_SECONDS)
        return Pipeline(name="ansor",
                        passes=(formation, *standard_tail(finalize)))
