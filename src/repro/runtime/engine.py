"""Module execution pricing.

One iteration's time is the sum of three components (the paper does not
explore multi-stream execution, Sec 6.1.2):

* **MEM** — memory-intensive kernel durations from the cost model;
* **compute** — compute-intensive library-call durations (roofline);
* **OVERHEAD** — non-computation: kernel-launch latency, framework
  scheduling (full executor cost per op in framework mode, a small
  dispatch cost in compiled mode), and CUDA memcpy/memset activity.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall
from repro.compilers.base import CompiledModule, kernel_memcpys
from repro.gpu.costmodel import cost_model_for
from repro.gpu.counters import PerfCounters
from repro.gpu.spec import GPUSpec, V100
from repro.store import collector_paused

if TYPE_CHECKING:
    from repro.runtime.plan import ExecutionPlan, PlanCache

# Per-step dispatch cost of a compiled engine (stream enqueue, no full
# framework executor round trip).
COMPILED_DISPATCH_LATENCY = 1.5e-6
# Launch latency that can never be hidden (driver serialization floor).
LAUNCH_FLOOR = 1.0e-6


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """The engine constants that shape a priced timeline.

    Frozen and hashable by value: the configuration is part of every
    execution plan's cache key, so overriding a constant (tests
    monkeypatch :data:`COMPILED_DISPATCH_LATENCY`) can never be served
    a plan priced under the old value.

    Attributes:
        compiled_dispatch_latency: Per-step dispatch cost of a compiled
            engine.
        launch_floor: Launch latency that can never be hidden.
    """

    compiled_dispatch_latency: float
    launch_floor: float

    @classmethod
    def current(cls) -> "EngineConfig":
        """Snapshot the module-level constants (honours monkeypatching)."""
        return cls(compiled_dispatch_latency=COMPILED_DISPATCH_LATENCY,
                   launch_floor=LAUNCH_FLOOR)


def _visible_launch_overhead(launch: float, duration: float,
                             floor: float = LAUNCH_FLOOR) -> float:
    """Launch cost visible on the timeline.

    CUDA streams pipeline: while a kernel runs, the host enqueues the
    next launch, so a kernel longer than the launch latency hides the
    following launch entirely.  Only kernels shorter than the launch
    latency leave the GPU idle — which is exactly why launch overhead
    dominates workloads made of thousands of microsecond kernels
    (Transformer) but not large-batch models (BERT).
    """
    return max(floor, launch - duration)


@dataclasses.dataclass
class StepProfile:
    """Timing record for one executed step.

    Attributes:
        name: Step name.
        category: "mem" (memory-intensive kernel), "compute" (library
            call) or "memcpy".
        duration: Device-side execution seconds.
        overhead: Non-computation seconds attributed to this step
            (launch + dispatch; the whole cost for memcpys).
        counters: nvprof counters (memory-intensive kernels only).
    """

    name: str
    category: str
    duration: float
    overhead: float
    counters: Optional[PerfCounters] = None


class Engine:
    """Prices compiled modules on a device model.

    :meth:`plan` is the only pricing path: it prices a module once into
    an immutable :class:`~repro.runtime.plan.ExecutionPlan` keyed by
    (module pricing signature, graph fingerprint, spec, engine config)
    in a shared :class:`~repro.runtime.plan.PlanCache`, and every later
    request replays the cached per-step timeline.  The serving hot
    loops and the figure harnesses therefore pay the roofline
    arithmetic O(unique (module, spec, config)) times, not O(requests).

    Args:
        spec: Device model to price on.
        config: Engine constants override; snapshots the module-level
            constants when omitted.
        plan_cache: Execution-plan store.  Defaults to the process-wide
            cache (:func:`~repro.runtime.plan.default_plan_cache`);
            pass a fresh :class:`~repro.runtime.plan.PlanCache` for
            isolation.
    """

    def __init__(self, spec: GPUSpec = V100,
                 config: Optional[EngineConfig] = None,
                 plan_cache: Optional["PlanCache"] = None):
        self.spec = spec
        self.cost_model = cost_model_for(spec)
        self.config = config if config is not None else EngineConfig.current()
        if plan_cache is None:
            from repro.runtime.plan import default_plan_cache
            plan_cache = default_plan_cache()
        self.plan_cache = plan_cache

    def dispatch_overhead(self, module: CompiledModule) -> float:
        """Per-step non-launch overhead for this module's execution mode."""
        if module.framework_mode:
            return self.spec.framework_op_latency
        return self.config.compiled_dispatch_latency

    def launch_costs(self, module: CompiledModule) -> tuple[float, float]:
        """(launch latency, per-step dispatch) for this module's mode."""
        dispatch = self.dispatch_overhead(module)
        launch = self.spec.kernel_launch_latency
        if module.graph_replay:
            # Captured-graph replay: one launch for the whole graph;
            # per-node cost is a small hardware dispatch.
            from repro.compilers.cudagraph import GRAPH_REPLAY_DISPATCH
            launch = 0.0
            dispatch = GRAPH_REPLAY_DISPATCH
        return launch, dispatch

    def price_step(self, step, launch: float,
                   dispatch: float) -> StepProfile:
        """Price one library call or memcpy under the given costs.

        Kernels are not priced here: :meth:`build_plan` prices them all
        in one batch pass through the cost model.

        Raises:
            TypeError: For kernels and unknown step types.
        """
        if isinstance(step, LibraryCall):
            duration = self.cost_model.library_kernel_time(
                step.flops(), step.bytes_moved())
            return StepProfile(
                name=step.name,
                category="compute",
                duration=duration,
                overhead=_visible_launch_overhead(
                    launch, duration, self.config.launch_floor)
                + dispatch,
            )
        if isinstance(step, MemcpyCall):
            transfer = step.nbytes / (self.spec.dram_bandwidth / 4)
            return StepProfile(
                name=step.name,
                category="memcpy",
                duration=0.0,
                overhead=self.spec.memcpy_latency + transfer,
            )
        raise TypeError(f"price_step cannot price {type(step)}")

    def variant_time(self, kernels: list[Kernel]) -> float:
        """Timeline seconds of one lowering of a scope in a compiled
        module, for comparing lowerings.

        Per kernel: its duration, the visible part of its launch and the
        dispatch, as :meth:`build_plan` prices a step; plus the memcpys
        the kernels need themselves (a splitting mapping's atomics need
        a memset, :func:`~repro.compilers.base.kernel_memcpys`).  The
        graph's h2d/d2h staging is the same for every lowering, so it
        cancels out and is not priced.
        """
        launch = self.spec.kernel_launch_latency
        dispatch = self.config.compiled_dispatch_latency
        priced = self.cost_model.price_batch(
            [kernel_cost_inputs(k) for k in kernels])
        total = sum(c.duration
                    + _visible_launch_overhead(launch, c.duration,
                                               self.config.launch_floor)
                    + dispatch
                    for c in priced)
        for call in kernel_memcpys(kernels):
            total += self.price_step(call, launch, dispatch).overhead
        return total

    def plan(self, module: CompiledModule) -> "ExecutionPlan":
        """The execution plan for ``module`` (priced on first use).

        Cache hits — including across engines, sessions, serving
        oracles, and (with ``REPRO_COMPILE_CACHE_DIR``) process runs —
        return the stored immutable plan without touching the cost
        model.
        """
        from repro.runtime.plan import plan_key
        key = plan_key(module, self.spec, self.config)
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = self.build_plan(module)
            self.plan_cache.put(key, plan)
        return plan

    @collector_paused()
    def build_plan(self, module: CompiledModule) -> "ExecutionPlan":
        """Price every step of one iteration into an immutable plan.

        Memory-intensive kernels are priced through the cost model's
        vectorized batch path — one NumPy pass over the whole module.
        """
        from repro.runtime.plan import ExecutionPlan
        launch, dispatch = self.launch_costs(module)
        kernels = [s for s in module.steps if isinstance(s, Kernel)]
        priced = iter(self.cost_model.price_batch(
            [kernel_cost_inputs(k) for k in kernels]))
        steps = []
        for step in module.steps:
            if not isinstance(step, Kernel):
                steps.append(self.price_step(step, launch, dispatch))
                continue
            counters = next(priced)
            steps.append(StepProfile(
                name=step.name,
                category="mem",
                duration=counters.duration,
                overhead=_visible_launch_overhead(
                    launch, counters.duration, self.config.launch_floor)
                + dispatch,
                counters=counters,
            ))
        return ExecutionPlan.from_steps(module.compiler_name,
                                        module.graph.name, tuple(steps))

    def run(self, module: CompiledModule) -> "ExecutionPlan":
        """The priced timeline of one iteration (same as :meth:`plan`)."""
        return self.plan(module)
