"""Instrumented pass-pipeline architecture (the Sec 4 phases as objects).

Public surface:

* :mod:`repro.pipeline.base` — :class:`Pass`, :class:`GraphPass`,
  :class:`CompileState`, :class:`PassReport` and :class:`Pipeline`;
* :mod:`repro.pipeline.manager` — :class:`PassManager` /
  :class:`PipelineRun`, the instrumented runner;
* :mod:`repro.pipeline.verify` — :func:`check_graph`, the inter-pass
  IR invariant checker over :func:`repro.ir.verify.verify_graph`;
* :mod:`repro.pipeline.lowering` — the shared formation/lowering passes
  every compiler composes.
"""

from repro.pipeline.base import (
    CompileState,
    GraphPass,
    Pass,
    PassReport,
    Pipeline,
)
from repro.pipeline.lowering import (
    FinalizeModulePass,
    FixpointSimplificationPass,
    FusionKernelFormationPass,
    LibraryDispatchPass,
    MemcpyPlanningPass,
    StepSchedulingPass,
    naive_mapping_factory,
    optimized_pipeline,
    standard_tail,
)
from repro.pipeline.manager import PassManager, PipelineRun
from repro.ir.verify import verify_graph
from repro.pipeline.verify import check_graph

__all__ = [
    "CompileState",
    "FinalizeModulePass",
    "FixpointSimplificationPass",
    "FusionKernelFormationPass",
    "GraphPass",
    "LibraryDispatchPass",
    "MemcpyPlanningPass",
    "Pass",
    "PassManager",
    "PassReport",
    "Pipeline",
    "PipelineRun",
    "StepSchedulingPass",
    "check_graph",
    "naive_mapping_factory",
    "optimized_pipeline",
    "standard_tail",
    "verify_graph",
]
