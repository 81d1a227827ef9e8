"""Execution engine and profiling.

Prices a compiled module on the GPU model, producing the per-kernel
timeline and the nvprof-style counters the paper's evaluation reports,
split into MEM (memory-intensive kernels), compute (library calls) and
OVERHEAD (launches, framework scheduling, memcpy) — the Fig 13 breakdown.
"""

from repro.runtime.engine import Engine, EngineConfig, StepProfile
from repro.runtime.amp import convert_to_amp
from repro.runtime.plan import (
    ExecutionPlan,
    PlanCache,
    PlanKey,
    default_plan_cache,
    module_pricing_signature,
    plan_key,
    set_default_plan_cache,
)
from repro.runtime.compile_cache import (
    CacheKey,
    CompileCache,
    default_cache,
    set_default_cache,
)
from repro.runtime.compile_service import (
    CompileService,
    ServiceStats,
    WarmupReport,
    default_service,
    set_default_service,
)
from repro.runtime.jit import JitCache, JitStats
from repro.store import StoreStats
from repro.runtime.trace import profile_to_chrome_trace, write_chrome_trace
from repro.runtime.timeline import TimelineResult, schedule as schedule_streams
from repro.runtime.session import Session

__all__ = ["Engine", "EngineConfig", "StepProfile",
           "convert_to_amp",
           "ExecutionPlan", "PlanCache", "PlanKey",
           "default_plan_cache", "module_pricing_signature", "plan_key",
           "set_default_plan_cache",
           "CacheKey", "CompileCache", "StoreStats",
           "default_cache", "set_default_cache",
           "CompileService", "ServiceStats", "WarmupReport",
           "default_service", "set_default_service",
           "JitCache", "JitStats",
           "profile_to_chrome_trace", "write_chrome_trace",
           "TimelineResult", "schedule_streams", "Session"]
