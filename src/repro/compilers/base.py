"""Compiler interface and compiled-module representation.

A compiled module is an ordered list of steps (kernels, library calls and
memcpy activities) over a graph.  ``order_steps`` performs the dependency
scheduling every compiler needs: given the kernels and library calls it
formed, produce a legal execution order based on which step *stores* each
value and which steps *load* it.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.codegen.executor import ModuleExecutor
from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall, Step
from repro.gpu.spec import GPUSpec, V100
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind

if TYPE_CHECKING:
    from repro.pipeline.base import PassReport, Pipeline


class CompilationError(RuntimeError):
    """A compilation stage failed.

    Carries the failure's provenance so a pipeline error is debuggable
    instead of a bare message: which pass raised (``pass_name``), in
    which pipeline (``pipeline``), over which stitch scope (``scope``)
    and graph node (``node``).  Context fields may be attached at raise
    time or filled in as the error propagates (:meth:`add_context` —
    the :class:`~repro.pipeline.manager.PassManager` annotates any
    compilation error escaping a pass); once set, a field is never
    overwritten, so the innermost context wins.
    """

    def __init__(self, message: str, *,
                 pass_name: Optional[str] = None,
                 pipeline: Optional[str] = None,
                 scope: Optional[str] = None,
                 node: Optional[str] = None):
        super().__init__(message)
        self.message = message
        self.pass_name = pass_name
        self.pipeline = pipeline
        self.scope = scope
        self.node = node

    def add_context(self, *, pass_name: Optional[str] = None,
                    pipeline: Optional[str] = None,
                    scope: Optional[str] = None,
                    node: Optional[str] = None) -> "CompilationError":
        """Fill in provenance fields that are still unset."""
        if self.pass_name is None:
            self.pass_name = pass_name
        if self.pipeline is None:
            self.pipeline = pipeline
        if self.scope is None:
            self.scope = scope
        if self.node is None:
            self.node = node
        return self

    def context(self) -> dict[str, str]:
        """The provenance fields that are set, in rendering order."""
        fields = (("pass", self.pass_name), ("pipeline", self.pipeline),
                  ("scope", self.scope), ("node", self.node))
        return {label: value for label, value in fields
                if value is not None}

    def __str__(self) -> str:
        context = self.context()
        if not context:
            return self.message
        rendered = ", ".join(f"{k}={v}" for k, v in context.items())
        return f"{self.message} [{rendered}]"


@dataclasses.dataclass
class CompiledModule:
    """The executable artifact a compiler produces.

    Attributes:
        graph: Source graph.
        steps: Ordered kernels / library calls / memcpy activities.
        compiler_name: Which strategy produced this module.
        framework_mode: True when every step is dispatched through the
            framework executor (TensorFlow's interpreted path); False for
            compiled engines that launch kernels back-to-back.
        graph_replay: True when the kernel sequence is captured into a
            CUDA Graph and replayed — per-kernel launch latency collapses
            to a small per-node dispatch.
        compile_seconds: Modeled JIT compilation cost (Sec 6.4.1).
        codegen_tag: Free-form marker of codegen decisions that are not
            visible in the step list's shape alone (e.g. which tuning
            config produced the launch configurations); folded into the
            plan-cache pricing signature so cached execution plans
            invalidate when the decision changes.
        pass_reports: One :class:`~repro.pipeline.base.PassReport` per
            pass of the compilation that produced the module, with wall
            times, so equality ignores it.
        pipeline_fingerprint: The composition digest of that pipeline,
            folded into the plan-cache key.
    """

    graph: Graph
    steps: list[Step]
    compiler_name: str
    framework_mode: bool = False
    graph_replay: bool = False
    compile_seconds: float = 0.0
    codegen_tag: str = ""
    pass_reports: tuple["PassReport", ...] = dataclasses.field(
        default=(), compare=False)
    pipeline_fingerprint: str = dataclasses.field(default="",
                                                  compare=False)

    def kernels(self) -> list[Kernel]:
        return [s for s in self.steps if isinstance(s, Kernel)]

    def library_calls(self) -> list[LibraryCall]:
        return [s for s in self.steps if isinstance(s, LibraryCall)]

    def memcpy_calls(self) -> list[MemcpyCall]:
        return [s for s in self.steps if isinstance(s, MemcpyCall)]

    def execute(self, feeds: Mapping[str, np.ndarray],
                ) -> dict[str, np.ndarray]:
        """Run the module's numerics (correctness path).

        The step list is compiled into a :class:`ModuleExecutor` once,
        on first use; repeated executions replay the bound program.
        """
        executor = self.__dict__.get("_executor")
        if executor is None:
            executor = ModuleExecutor(self.graph, self.steps)
            self.__dict__["_executor"] = executor
        return executor.run(feeds)

    def __getstate__(self):
        # Derived memos (the bound executor, the plan-cache pricing
        # signature) never persist: a module loaded from the compile
        # cache must re-derive them under the code that loads it.
        state = self.__dict__.copy()
        state.pop("_executor", None)
        state.pop("_pricing_signature", None)
        return state


class Compiler(abc.ABC):
    """A graph -> module compilation strategy.

    Every compiler declares its plan as a
    :class:`~repro.pipeline.base.Pipeline` via :meth:`build_pipeline`;
    :meth:`compile` runs it through the instrumented
    :class:`~repro.pipeline.manager.PassManager`, so per-pass timing and
    IR deltas ride on every module (``module.pass_reports``) along with
    the composition digest (``module.pipeline_fingerprint``).  That
    digest is the compiler's identity in every cache key.
    """

    name: str = "base"

    @abc.abstractmethod
    def build_pipeline(self) -> "Pipeline":
        """This compiler's declared pass pipeline."""

    def compile(self, graph: Graph, spec: GPUSpec = V100, *,
                optimize: bool = False) -> CompiledModule:
        """Compile ``graph`` for device ``spec``.

        Args:
            optimize: Run the retained XLA-style simplification pipeline
                (:mod:`repro.ir.passes`) before kernel formation — what
                Sec 5 means by "retains all the optimizations of XLA
                except fusion".
        """
        return self.run_pipeline(graph, spec, optimize=optimize).module

    def compile_optimized(self, graph: Graph,
                          spec: GPUSpec = V100) -> CompiledModule:
        """``compile(graph, spec, optimize=True)``."""
        return self.compile(graph, spec, optimize=True)

    def _pipeline(self, optimize: bool) -> "Pipeline":
        """The pipeline a compile with ``optimize`` runs: the declared
        one, behind the simplification fixpoint when optimizing."""
        pipeline = self.build_pipeline()
        if optimize:
            from repro.pipeline.lowering import optimized_pipeline
            pipeline = optimized_pipeline(pipeline)
        return pipeline

    def run_pipeline(self, graph: Graph, spec: GPUSpec = V100, *,
                     optimize: bool = False, validate: bool = False):
        """Run this compiler's pipeline, returning the instrumented
        :class:`~repro.pipeline.manager.PipelineRun` (module + per-pass
        reports).

        Args:
            optimize: Prepend the simplification fixpoint.
            validate: Check IR invariants between graph passes.
        """
        from repro.pipeline.manager import PassManager
        return PassManager(self._pipeline(optimize),
                           validate=validate).run(graph, spec)

    def pipeline_fingerprint(self, optimize: bool = False) -> str:
        """The composition digest of the pipeline a compile with
        ``optimize`` runs: the compiler's identity in compile-cache and
        plan-cache keys.

        Built once per identity, not per call: the memo remembers the
        attributes it was built from, so reassigning one (say
        ``config``) keys the new pipeline, never a stale one.
        """
        state = {name: value for name, value in vars(self).items()
                 if name != "_fingerprints"}
        memo = self.__dict__.get("_fingerprints")
        if memo is None or memo[0] != state:
            memo = self.__dict__["_fingerprints"] = (state, {})
        built = memo[1]
        if optimize not in built:
            built[optimize] = self._pipeline(optimize).fingerprint()
        return built[optimize]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def order_steps(graph: Graph,
                kernels: Iterable[Kernel],
                library_nodes: Iterable[Node]) -> list[Step]:
    """Topologically order kernels and library calls by value dependencies.

    Args:
        graph: Source graph.
        kernels: Kernels, each declaring inputs/outputs.
        library_nodes: Compute-intensive nodes to dispatch as library calls.

    Returns:
        A legal execution order.

    Raises:
        CompilationError: If some step's input is produced by no step and is
            not a parameter/constant, or the step graph is cyclic.
    """
    steps: list[Step] = list(kernels)
    steps.extend(LibraryCall(n) for n in library_nodes)

    producer: dict[Node, int] = {}
    for idx, step in enumerate(steps):
        for value in step.outputs:
            producer[value] = idx

    dependents: dict[int, list[int]] = {i: [] for i in range(len(steps))}
    in_degree = [0] * len(steps)
    for idx, step in enumerate(steps):
        for value in step.inputs:
            if value.kind in (OpKind.PARAMETER, OpKind.CONSTANT):
                continue
            if value not in producer:
                raise CompilationError(
                    f"step {step.name} reads {value.name}, which no step "
                    f"stores")
            dep = producer[value]
            if dep != idx:
                dependents[dep].append(idx)
                in_degree[idx] += 1

    ready = sorted(i for i in range(len(steps)) if in_degree[i] == 0)
    ordered: list[Step] = []
    while ready:
        idx = ready.pop(0)
        ordered.append(steps[idx])
        for nxt in dependents[idx]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(ordered) != len(steps):
        raise CompilationError("cyclic dependency between compiled steps")
    return ordered


_VIEW_KINDS = frozenset({OpKind.BROADCAST, OpKind.RESHAPE,
                         OpKind.TRANSPOSE})


def _is_resident_weight(graph: Graph, param: Node) -> bool:
    """Weights live on the device across iterations; activations are
    staged every iteration.  Heuristic: parameters consumed by library
    calls (dense/conv/RNN weights) or of rank <= 1 (biases, scales,
    stored statistics) are resident."""
    if param.shape.rank <= 1:
        return True
    return any(u.is_compute_intensive() for u in graph.users(param))


def framework_memcpys(graph: Graph, kernels: Iterable[Kernel],
                      library_count: int) -> list[MemcpyCall]:
    """Model the CUDA memcpy/memset activities of one iteration.

    Sources (Table 3's CPY row):

    * host->device staging per *activation* input and device->host per
      output (weights stay resident);
    * a memset per kernel whose mapping accumulates with atomics (the
      accumulation buffer must be zeroed);
    * a device-to-device copy per kernel rooted at a data-movement op —
      the runtime materializes a buffer at every cluster boundary whose
      producing cluster ends in a layout op;
    * a workspace memcpy per library call (cuDNN workspace staging).

    The last two scale with kernel count, so stitching directly reduces
    CPY traffic — the 43.2% average reduction the paper reports.
    """
    calls: list[MemcpyCall] = []
    for param in graph.parameters:
        if _is_resident_weight(graph, param):
            continue
        calls.append(MemcpyCall(param.num_elements * param.dtype.nbytes,
                                tag=f"h2d_{param.name}"))
    for out in graph.outputs:
        calls.append(MemcpyCall(out.num_elements * out.dtype.nbytes,
                                tag=f"d2h_{out.name}"))
    calls.extend(kernel_memcpys(kernels))
    for i in range(library_count):
        calls.append(MemcpyCall(4096, tag=f"workspace_{i}"))
    return calls


def kernel_memcpys(kernels: Iterable[Kernel]) -> list[MemcpyCall]:
    """The memcpy activities that depend on the kernels themselves —
    atomic-accumulation memsets and boundary d2d copies.  Unlike the
    h2d/d2h staging (fixed by the graph), these vary with the thread
    mappings, so variant comparisons must account for them."""
    calls: list[MemcpyCall] = []
    for kernel in kernels:
        needs_memset = (kernel.mapping.accumulates
                        or kernel.extra_atomic_rounds > 0)
        if needs_memset:
            total = sum(o.num_elements * o.dtype.nbytes
                        for o in kernel.outputs)
            calls.append(MemcpyCall(total, tag=f"memset_{kernel.name}"))
        elif any(o.kind in _VIEW_KINDS for o in kernel.outputs):
            total = sum(o.num_elements * o.dtype.nbytes
                        for o in kernel.outputs
                        if o.kind in _VIEW_KINDS)
            calls.append(MemcpyCall(total, tag=f"d2d_{kernel.name}"))
    return calls
