"""The instrumented pipeline runner.

``PassManager`` executes a :class:`~repro.pipeline.base.Pipeline` over a
graph: it threads a :class:`~repro.pipeline.base.CompileState` through
every pass, records a :class:`~repro.pipeline.base.PassReport` per pass
(wall time, IR node / kernel / step deltas, pass-specific counters), and
— when validation is on — checks the IR invariants of
:mod:`repro.pipeline.verify` on the input graph and after every
graph-rewriting pass.

Failures stay debuggable: any
:class:`~repro.compilers.base.CompilationError` escaping a pass is
annotated in place with the pass and pipeline it came from (existing
scope/node context is preserved).  Other exception types propagate
untouched — a :class:`~repro.compilers.tensorrt.
UnsupportedWorkloadError` must stay recognizable to its callers.

The finished module carries its provenance: ``module.pass_reports``
holds the per-pass instrumentation and ``module.pipeline_fingerprint``
the composition digest the cache keys fold in.
"""

from __future__ import annotations

import dataclasses
import time

from repro.gpu.spec import GPUSpec, V100
from repro.ir.graph import Graph
from repro.pipeline.base import CompileState, PassReport, Pipeline
from repro.pipeline.verify import check_graph
from repro.store import collector_paused


@dataclasses.dataclass(frozen=True)
class PipelineRun:
    """Outcome of one ``PassManager.run``.

    Attributes:
        module: The compiled module the pipeline produced.
        reports: One :class:`PassReport` per executed pass, in order.
        pipeline: The pipeline that ran.
        seconds: Total wall time across all passes (validation
            excluded — it is a debugging aid, not part of the compile).
    """

    module: object
    reports: tuple[PassReport, ...]
    pipeline: Pipeline

    @property
    def seconds(self) -> float:
        return sum(report.seconds for report in self.reports)


class PassManager:
    """Run a pipeline with instrumentation and optional validation.

    Args:
        pipeline: The pass sequence to execute.
        validate: Check IR invariants on the input graph and after every
            ``kind == "graph"`` pass; violations raise a
            :class:`~repro.compilers.base.CompilationError` naming the
            offending pass.
    """

    def __init__(self, pipeline: Pipeline, *, validate: bool = False):
        self.pipeline = pipeline
        self.validate = validate

    @collector_paused()
    def run(self, graph: Graph, spec: GPUSpec = V100) -> PipelineRun:
        """Compile ``graph`` through the pipeline.

        Raises:
            CompilationError: From a failing pass (annotated with pass
                context), from a validation violation, or when the
                pipeline finishes without producing a module.
        """
        from repro.compilers.base import CompilationError

        state = CompileState(graph=graph, spec=spec)
        if self.validate:
            check_graph(state.graph, pass_name="<input>")

        reports: list[PassReport] = []
        for pass_obj in self.pipeline.passes:
            nodes_before = len(state.graph)
            kernels_before = len(state.kernels)
            steps_before = len(state.steps or ())
            started = time.perf_counter()
            try:
                detail = pass_obj.run(state) or {}
            except CompilationError as error:
                error.add_context(pass_name=pass_obj.name,
                                  pipeline=self.pipeline.name)
                raise
            seconds = time.perf_counter() - started
            if self.validate and pass_obj.kind == "graph":
                check_graph(state.graph, pass_name=pass_obj.name)
            reports.append(PassReport(
                pass_name=pass_obj.name,
                kind=pass_obj.kind,
                seconds=seconds,
                nodes_before=nodes_before,
                nodes_after=len(state.graph),
                kernels_before=kernels_before,
                kernels_after=len(state.kernels),
                steps_before=steps_before,
                steps_after=len(state.steps or ()),
                detail=detail,
            ))

        if state.module is None:
            raise CompilationError(
                f"pipeline {self.pipeline.name!r} finished without "
                f"producing a module (missing finalize pass?)",
                pass_name=self.pipeline.passes[-1].name
                if self.pipeline.passes else None,
                pipeline=self.pipeline.name)
        module = state.module
        module.pass_reports = tuple(reports)
        module.pipeline_fingerprint = self.pipeline.fingerprint()
        return PipelineRun(module=module, reports=tuple(reports),
                           pipeline=self.pipeline)
