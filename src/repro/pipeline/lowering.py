"""Shared pipeline passes.

The stages every compiler in this repository composes from:

* the retained XLA-style simplification layer —
  :class:`FixpointSimplificationPass` running :mod:`repro.ir.passes`
  (what ``compile_optimized`` prepends);
* :class:`FusionKernelFormationPass` — the root-rule/mapping-rule
  parameterization of baseline kernel formation (XLA, TVM, TensorRT and
  Ansor differ only in where fusion gives up and how threads are
  mapped);
* :class:`LibraryDispatchPass`, :class:`StepSchedulingPass`,
  :class:`MemcpyPlanningPass`, :class:`FinalizeModulePass` — the common
  tail: dispatch compute-intensive nodes as library calls, order the
  steps by dataflow, model the per-iteration memcpy activities, and
  assemble the :class:`~repro.compilers.base.CompiledModule`.

Compiler-specific formation stages (the AStitch phases, TensorFlow's
op-per-kernel walk, TensorRT's training rejection, Ansor's schedule
search) live next to their compilers and compose with these.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.compilers.base import (
    CompiledModule,
    framework_memcpys,
    order_steps,
)
from repro.codegen.mapping import naive_mapping, root_geometry
from repro.compilers.common import MappingFn, build_root_kernels
from repro.ir import passes as ir_passes
from repro.ir import patterns
from repro.ir.graph import Graph, Node
from repro.pipeline.base import CompileState, Pass, Pipeline

class FixpointSimplificationPass(Pass):
    """The retained simplification, run to its fixpoint.

    Exactly :func:`repro.ir.passes.optimize`: one sweep through the
    smart constructor, then dead-code elimination.  It is memoized per
    graph, so every compiler after the first reuses it
    (``detail["reused"]``).
    """

    name = "simplify-fixpoint"
    kind = "graph"

    def run(self, state: CompileState) -> dict[str, Any]:
        state.graph, report = ir_passes.optimize(state.graph)
        detail: dict[str, Any] = dict(report.changes)
        detail["iterations"] = report.iterations
        detail["changes"] = report.total_changes
        detail["reused"] = report.reused
        return detail


RootsFn = Callable[[Graph, list[Node]], list[Node]]
MappingFactory = Callable[[CompileState], MappingFn]


def naive_mapping_factory(state: CompileState) -> MappingFn:
    """The fixed baseline thread-mapping rule on ``state``'s device."""
    spec = state.spec
    return lambda root: naive_mapping(root_geometry(root), spec)


class FusionKernelFormationPass(Pass):
    """Root-rule-driven kernel formation over memory-intensive components.

    The structure all the baseline fusers share (Sec 2.3.1): pick the
    fusion roots inside each memory-intensive component, then grow each
    root's kernel backwards with per-element inlining.  What a concrete
    compiler chooses is the root rule (where fusion gives up) and the
    thread-mapping rule — both are constructor parameters here and part
    of the pass signature.

    Args:
        name: Pass name (e.g. ``"xla-fusion"``).
        roots_fn: ``(graph, component) -> roots`` rule.
        mapping_factory: Builds the per-root ``ThreadMapping`` rule for
            one run; receives the :class:`CompileState` so mappings may
            consult the graph and device spec.
        mapping_label: Stable name of the mapping rule for the pass
            signature.
    """

    kind = "lower"

    def __init__(self, name: str, roots_fn: RootsFn,
                 mapping_factory: MappingFactory,
                 mapping_label: str = "naive"):
        self.name = name
        self._roots_fn = roots_fn
        self._mapping_factory = mapping_factory
        self._mapping_label = mapping_label

    def params(self) -> str:
        return (f"roots={self._roots_fn.__name__},"
                f"mapping={self._mapping_label}")

    def run(self, state: CompileState) -> dict[str, Any]:
        mapping_fn = self._mapping_factory(state)
        components = 0
        for component in patterns.memory_intensive_components(state.graph):
            components += 1
            roots = self._roots_fn(state.graph, component)
            state.kernels.extend(build_root_kernels(
                state.graph, component, roots, mapping_fn))
        return {"components": components,
                "kernels": len(state.kernels)}


class LibraryDispatchPass(Pass):
    """Dispatch every compute-intensive node as a library call."""

    name = "library-dispatch"
    kind = "lower"

    def run(self, state: CompileState) -> dict[str, Any]:
        state.library_nodes = list(state.graph.compute_intensive_nodes())
        return {"library_calls": len(state.library_nodes)}


class StepSchedulingPass(Pass):
    """Topologically order kernels and library calls by dataflow."""

    name = "schedule-steps"
    kind = "lower"

    def run(self, state: CompileState) -> dict[str, Any]:
        state.steps = order_steps(state.graph, state.kernels,
                                  state.library_nodes)
        return {"steps": len(state.steps)}


class MemcpyPlanningPass(Pass):
    """Prepend the modeled CUDA memcpy/memset activities (Table 3 CPY)."""

    name = "plan-memcpys"
    kind = "lower"

    def run(self, state: CompileState) -> dict[str, Any]:
        memcpys = list(framework_memcpys(state.graph, state.kernels,
                                         len(state.library_nodes)))
        state.steps = memcpys + (state.steps or [])
        return {"memcpys": len(memcpys)}


class FinalizeModulePass(Pass):
    """Assemble the :class:`CompiledModule` with the compiler's identity.

    Args:
        compiler_name: The strategy name stamped on the module.
        framework_mode: Framework-executor dispatch (TensorFlow).
        graph_replay: CUDA-Graph capture-and-replay execution.
        seconds_per_node: Modeled JIT seconds per graph node.
        fixed_seconds: Flat modeled compile cost (Ansor's tuning trials).
        codegen_tag: Codegen-decision marker folded into the plan-cache
            pricing signature (e.g. which tuning config decided the
            launches).
    """

    name = "finalize-module"
    kind = "finalize"

    def __init__(self, compiler_name: str, *,
                 framework_mode: bool = False,
                 graph_replay: bool = False,
                 seconds_per_node: float = 0.0,
                 fixed_seconds: float = 0.0,
                 codegen_tag: str = ""):
        self.compiler_name = compiler_name
        self.framework_mode = framework_mode
        self.graph_replay = graph_replay
        self.seconds_per_node = seconds_per_node
        self.fixed_seconds = fixed_seconds
        self.codegen_tag = codegen_tag

    def params(self) -> str:
        return (f"name={self.compiler_name},"
                f"framework={int(self.framework_mode)},"
                f"replay={int(self.graph_replay)},"
                f"s/node={self.seconds_per_node!r},"
                f"fixed={self.fixed_seconds!r},"
                f"tag={self.codegen_tag}")

    def run(self, state: CompileState) -> dict[str, Any]:
        state.module = CompiledModule(
            state.graph, state.steps or [], self.compiler_name,
            framework_mode=self.framework_mode,
            graph_replay=self.graph_replay,
            compile_seconds=(self.fixed_seconds
                             + len(state.graph) * self.seconds_per_node),
            codegen_tag=self.codegen_tag)
        return {"steps": len(state.module.steps)}


def standard_tail(finalize: FinalizeModulePass) -> tuple[Pass, ...]:
    """The shared lowering tail: library dispatch, scheduling, memcpy
    planning, module assembly."""
    return (LibraryDispatchPass(), StepSchedulingPass(),
            MemcpyPlanningPass(), finalize)


def optimized_pipeline(pipeline: Pipeline) -> Pipeline:
    """``pipeline`` with the retained simplification fixpoint prepended
    (the declarative form of ``Compiler.compile_optimized``)."""
    return Pipeline(
        name=f"{pipeline.name}+simplify",
        passes=(FixpointSimplificationPass(), *pipeline.passes))
