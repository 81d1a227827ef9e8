"""Analytical SIMT GPU model.

The paper measures effects on real NVIDIA GPUs; this package substitutes an
analytical model of the same mechanisms: occupancy-limited parallelism,
DRAM-bandwidth-bound kernels, kernel-launch and global-barrier latencies,
and the nvprof counters the evaluation reports.
"""

from repro.gpu.spec import GPUSpec, V100, T4, A100
from repro.gpu.occupancy import (OccupancyResult, occupancy,
                                 occupancy_cache_info)
from repro.gpu.counters import PerfCounters
from repro.gpu.costmodel import (KernelCostInputs, KernelCostModel,
                                 cost_model_for)
from repro.gpu.barrier import global_barrier_latency
from repro.gpu.memory import MemorySpace, Buffer, GlobalMemoryPool


def clear_caches() -> None:
    """Reset the GPU model's memos only (occupancy and the shared cost
    models' prices); :func:`repro.reset_caches` resets every memo."""
    from repro.store import registered
    for name in ("occupancy", "cost-models"):
        registered()[name].clear()


__all__ = [
    "clear_caches",
    "occupancy_cache_info",
    "GPUSpec",
    "V100",
    "T4",
    "A100",
    "OccupancyResult",
    "occupancy",
    "PerfCounters",
    "KernelCostInputs",
    "KernelCostModel",
    "cost_model_for",
    "global_barrier_latency",
    "MemorySpace",
    "Buffer",
    "GlobalMemoryPool",
]
