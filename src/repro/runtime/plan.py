"""Execution plans and the plan cache.

A module's priced timeline is a pure function of three things: the
module's pricing-relevant content (its steps' launch configurations,
traffic and instruction counts), the device spec, and the engine
configuration.  This module makes that purity pay: the
:class:`~repro.runtime.engine.Engine` prices a module once into an
immutable :class:`ExecutionPlan` and every later request — from any
engine, session, serving oracle or figure harness in the process — is a
cache hit that replays the stored per-step timeline.  The serving
capacity search, which runs dozens of load tests over the same
(workload, bucket, spec) modules, goes from O(requests x steps) pricing
work to O(unique modules).

The cache key never trusts object identity:

* the **module signature** digests every step's cost-model inputs
  (:func:`~repro.codegen.builder.kernel_cost_inputs` per kernel,
  flops/bytes per library call, bytes per memcpy) plus the execution
  mode, so two structurally identical modules share one plan and any
  pricing-relevant difference cannot alias;
* the **spec** and **engine config** participate as full frozen
  dataclass values — changing a single ``GPUSpec`` field or overriding
  ``COMPILED_DISPATCH_LATENCY`` is a guaranteed miss.

Plans live in the shared :class:`~repro.store.TieredStore`: a bounded
in-memory LRU and — when ``REPRO_COMPILE_CACHE_DIR`` is set —
``plan_<key_digest>.pkl`` files next to the persisted compiled modules,
so a warm process leaves behind both the artifact and its price.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator

from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall
from repro.compilers.base import CompiledModule
from repro.gpu.costmodel import KernelCostInputs
from repro.gpu.counters import PerfCounters, aggregate
from repro.gpu.spec import GPUSpec
from repro.ir.fingerprint import graph_fingerprint
from repro.runtime.engine import EngineConfig, StepProfile
from repro.store import ProcessDefault, TieredStore

# Bump on any change to the plan payload, the signature encoding or the
# key composition; invalidates every persisted plan at once.
PLAN_FORMAT_VERSION = 2

# A kernel's cost inputs as a field tuple.  ``KernelCostInputs`` is flat,
# so this reprs exactly like ``dataclasses.astuple``, which deep-copies
# every field.
_cost_fields = operator.attrgetter(
    *(field.name for field in dataclasses.fields(KernelCostInputs)))

# In-memory entry bound: a plan is a few KB of floats per step; even the
# 8k-step Transformer plans keep hundreds of entries comfortable.
DEFAULT_CAPACITY = 512


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """The immutable priced timeline of one module iteration.

    The only priced-timeline type: :meth:`Engine.run
    <repro.runtime.engine.Engine.run>`, sessions, serving oracles and
    the figure harnesses all read this object.  The per-step profiles
    and the category totals are computed once at build time, so replay
    is a cache lookup.

    Attributes:
        module_name: Compiler name that produced the module.
        graph_name: Source graph's display name.
        steps: Per-step timing records, in execution order.
        mem_time: Total memory-intensive kernel seconds.
        compute_time: Total library-call seconds.
        overhead_time: Total non-computation seconds.
        mem_kernel_count: Memory-intensive kernels in the timeline.
        compute_kernel_count: Library calls in the timeline.
        memcpy_count: Memcpy/memset activities in the timeline.
    """

    module_name: str
    graph_name: str
    steps: tuple[StepProfile, ...]
    mem_time: float
    compute_time: float
    overhead_time: float
    mem_kernel_count: int
    compute_kernel_count: int
    memcpy_count: int

    @classmethod
    def from_steps(cls, module_name: str, graph_name: str,
                   steps: tuple[StepProfile, ...]) -> "ExecutionPlan":
        """Build a plan, totalling the steps in execution order."""
        return cls(
            module_name=module_name,
            graph_name=graph_name,
            steps=steps,
            mem_time=sum(s.duration for s in steps
                         if s.category == "mem"),
            compute_time=sum(s.duration for s in steps
                             if s.category == "compute"),
            overhead_time=sum(s.overhead for s in steps),
            mem_kernel_count=sum(1 for s in steps
                                 if s.category == "mem"),
            compute_kernel_count=sum(1 for s in steps
                                     if s.category == "compute"),
            memcpy_count=sum(1 for s in steps
                             if s.category == "memcpy"),
        )

    @property
    def total_time(self) -> float:
        """One iteration's seconds (MEM + compute + OVERHEAD)."""
        return self.mem_time + self.compute_time + self.overhead_time

    def mem_counters(self) -> list[PerfCounters]:
        """nvprof counters of every memory-intensive kernel, in order."""
        return [s.counters for s in self.steps
                if s.category == "mem" and s.counters is not None]

    def aggregate_mem_counters(self) -> PerfCounters:
        """The memory-intensive kernels' counters combined (Table 5)."""
        return aggregate(self.mem_counters())


def module_pricing_signature(module: CompiledModule) -> str:
    """Content digest of everything pricing reads from a module.

    Covers the execution mode flags, the codegen tag (which tuning
    configuration decided the launch configs — a tuned and an untuned
    module with coincidentally equal step lists must not share a plan)
    and, per step, the cost-model inputs: a kernel's
    :class:`~repro.gpu.costmodel.KernelCostInputs`, a library call's
    flops/bytes, a memcpy's size.  Memoized on the module object
    (dropped on pickling) — the walk is O(steps) once.
    """
    cached = module.__dict__.get("_pricing_signature")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(
        f"plan-sig-v{PLAN_FORMAT_VERSION}|{module.compiler_name}"
        f"|{module.framework_mode}|{module.graph_replay}"
        f"|{module.codegen_tag}".encode("utf-8"))
    for step in module.steps:
        if isinstance(step, Kernel):
            entry = ("k", _cost_fields(kernel_cost_inputs(step)))
        elif isinstance(step, LibraryCall):
            entry = ("l", step.flops(), step.bytes_moved())
        elif isinstance(step, MemcpyCall):
            entry = ("m", step.nbytes)
        else:  # Engine.build_plan will reject it
            entry = ("?", type(step).__name__)
        digest.update(repr(entry).encode("utf-8"))
    signature = digest.hexdigest()
    module.__dict__["_pricing_signature"] = signature
    return signature


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """Full address of one execution plan.

    Attributes:
        module: Module pricing signature
            (:func:`module_pricing_signature`).
        graph: Structural graph fingerprint (cheap insurance on top of
            the signature; memoized per graph).
        spec: Device spec, by value — any field change is a miss.
        config: Engine configuration, by value.
        pipeline: The pipeline-composition fingerprint the module was
            compiled under ("" for a module assembled by hand).
            The pricing signature already covers everything the plan
            *reads*; this field additionally re-keys plans when the pass
            composition changes, mirroring the compile cache, so a
            recomposed pipeline can never serve a stale priced timeline.
    """

    module: str
    graph: str
    spec: GPUSpec
    config: EngineConfig
    pipeline: str = ""


def plan_key(module: CompiledModule, spec: GPUSpec,
             config: EngineConfig) -> PlanKey:
    """The cache key pricing ``module`` on ``spec`` under ``config``."""
    return PlanKey(module=module_pricing_signature(module),
                   graph=graph_fingerprint(module.graph),
                   spec=spec, config=config,
                   pipeline=module.pipeline_fingerprint)


class PlanCache(TieredStore[PlanKey, ExecutionPlan]):
    """Two-tier store of execution plans (``plan_<key_digest>.pkl`` on
    disk, beside the compiled modules)."""

    prefix = "plan_"
    version = PLAN_FORMAT_VERSION
    default_capacity = DEFAULT_CAPACITY
    value_type = ExecutionPlan


# The process-wide plan cache every engine shares by default.
_default = ProcessDefault("plan", PlanCache.from_env)
default_plan_cache = _default.get
set_default_plan_cache = _default.set
