"""Analytical kernel cost model.

A memory-intensive kernel's time is modeled as the roofline maximum of its
DRAM time and its FP-instruction time, de-rated by how well the launch
fills the machine:

* effective DRAM bandwidth scales with achieved occupancy (few resident
  warps cannot cover memory latency — the Fig 6(a) "small block size"
  pathology);
* effective compute throughput scales with SM coverage (a 64-block grid on
  an 80-SM V100 leaves SMs idle — the Fig 6(b) "small block count"
  pathology);
* global barriers and cross-block atomics add their latencies.

Only *relative* behaviour matters for the reproduction: the model's job is
to rank kernels (and compiler strategies) the way the mechanisms rank them
on hardware.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.gpu.barrier import global_barrier_latency
from repro.gpu.counters import PerfCounters
from repro.gpu.occupancy import achieved_occupancy, occupancy, sm_efficiency
from repro.gpu.spec import GPUSpec
from repro.store import register

# Occupancy at which DRAM bandwidth saturates; below it, bandwidth degrades
# roughly linearly (latency hiding needs resident warps — this is what makes
# the Fig 6 launches slow: 0.5 occupancy from 32-thread blocks, 0.4 from a
# 64-block grid).
_BANDWIDTH_SATURATION_OCCUPANCY = 0.9
# Floor so degenerate launches still make progress.
_MIN_UTILIZATION = 0.02
# Fixed per-kernel ramp (tail effects, instruction fetch): small relative to
# launch latency, which the runtime accounts separately.
_KERNEL_RAMP = 1.0e-6
# Minimum latency of one wave of thread blocks (dependent DRAM round trips);
# kernels launching hundreds of waves of tiny blocks pay this pipeline floor
# (the Fig 6a "750,000 blocks of 32 threads" pathology).
_WAVE_LATENCY = 0.5e-6


@dataclasses.dataclass(frozen=True)
class KernelCostInputs:
    """Everything the cost model needs to price one kernel.

    Frozen, so instances hash and compare by value — two kernels with
    identical launch/traffic/instruction numbers share one memoized
    price, and any field difference is a distinct memo key.

    Attributes:
        grid_size: Thread blocks launched.
        block_size: Threads per block.
        bytes_read: Bytes loaded from global memory (post data-reuse).
        bytes_written: Bytes stored to global memory.
        fp_instructions: FP instructions executed, *including* any
            redundancy the codegen strategy introduced.
        regs_per_thread: Register footprint per thread.
        smem_per_block: Shared-memory footprint per block.
        num_global_barriers: Device-wide software barriers inside the
            kernel (AStitch global scheme).
        num_atomic_rounds: Cross-block atomic reduction rounds (task
            splitting).
    """

    grid_size: int
    block_size: int
    bytes_read: float
    bytes_written: float
    fp_instructions: float
    regs_per_thread: int = 32
    smem_per_block: int = 0
    num_global_barriers: int = 0
    num_atomic_rounds: int = 0


class KernelCostModel:
    """Prices kernels on a given device and emits nvprof-style counters.

    ``price`` is memoized by its (hashable) :class:`KernelCostInputs`:
    a module full of structurally identical kernels pays the roofline
    arithmetic once, and repeated pricing of the same module is pure
    dict lookups.  Callers must treat returned counters as immutable —
    memo hits share the object.
    """

    def __init__(self, spec: GPUSpec):
        self.spec = spec
        self._memo: dict[KernelCostInputs, PerfCounters] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def memory_time(self, inputs: KernelCostInputs, occ: float) -> float:
        """DRAM transfer time under occupancy-derated bandwidth."""
        utilization = max(_MIN_UTILIZATION,
                          min(1.0, occ / _BANDWIDTH_SATURATION_OCCUPANCY))
        bandwidth = self.spec.dram_bandwidth * utilization
        return (inputs.bytes_read + inputs.bytes_written) / bandwidth

    def compute_time(self, inputs: KernelCostInputs,
                     sm_eff: float, occ: float) -> float:
        """FP execution time under SM-coverage-derated throughput."""
        coverage = max(_MIN_UTILIZATION, sm_eff)
        # Per-SM issue also needs enough warps; fold occupancy in softly.
        issue = max(_MIN_UTILIZATION, min(1.0, occ / 0.25))
        throughput = self.spec.fp32_throughput * coverage * issue
        return inputs.fp_instructions / throughput

    def price(self, inputs: KernelCostInputs) -> PerfCounters:
        """Produce the counters (including duration) for one kernel.

        Memoized: equal inputs return the shared cached counters.

        Raises:
            ValueError: If a global barrier is requested with more blocks
                than one wave can host (would deadlock on hardware).
        """
        return self.price_batch((inputs,))[0]

    def _roofline(self, inputs: KernelCostInputs) -> dict[str, float]:
        """The scalar roofline terms of one kernel (no memo)."""
        spec = self.spec
        occ = achieved_occupancy(spec, inputs.grid_size, inputs.block_size,
                                 inputs.regs_per_thread,
                                 inputs.smem_per_block)
        sm_eff = sm_efficiency(spec, inputs.grid_size, inputs.block_size,
                               inputs.regs_per_thread,
                               inputs.smem_per_block)
        wave = occupancy(spec, inputs.block_size, inputs.regs_per_thread,
                         inputs.smem_per_block).blocks_per_wave
        return {
            "memory_time": self.memory_time(inputs, occ),
            "compute_time": self.compute_time(inputs, sm_eff, occ),
            "wave_floor": math.ceil(inputs.grid_size / wave)
            * _WAVE_LATENCY,
            "barrier_time": (inputs.num_global_barriers
                             * global_barrier_latency(spec,
                                                      inputs.grid_size)
                             if inputs.num_global_barriers else 0.0),
            "atomic_time": inputs.num_atomic_rounds * spec.atomic_latency,
            "achieved_occupancy": occ,
            "sm_efficiency": sm_eff,
        }

    def _price_uncached(self, inputs: KernelCostInputs) -> PerfCounters:
        """The scalar reference pricing path (no memo, no vectorization).

        The oracle the vectorized :meth:`price_batch` is tested against.
        The zero barrier/atomic terms are added unconditionally, which
        is exact: ``x + 0.0 == x`` for every finite ``x``.
        """
        terms = self._roofline(inputs)
        time = max(terms["memory_time"], terms["compute_time"],
                   terms["wave_floor"]) + _KERNEL_RAMP
        time += terms["barrier_time"]
        time += terms["atomic_time"]
        tx = self.spec.dram_transaction_bytes
        return PerfCounters(
            dram_read_transactions=math.ceil(inputs.bytes_read / tx),
            dram_write_transactions=math.ceil(inputs.bytes_written / tx),
            inst_fp_32=int(round(inputs.fp_instructions)),
            achieved_occupancy=terms["achieved_occupancy"],
            sm_efficiency=terms["sm_efficiency"],
            duration=time,
        )

    def price_batch(self, inputs_list: Sequence[KernelCostInputs],
                    ) -> list[PerfCounters]:
        """Price many kernels in one vectorized NumPy pass.

        Bit-identical to calling :meth:`price` per kernel: the roofline
        arithmetic runs on float64 arrays with the exact operation order
        of the scalar path (IEEE-754 ops are correctly rounded either
        way), and the occupancy lookups go through the same memoized
        calculator.  Results are deduplicated against — and seeded
        into — the price memo, so a scalar re-price later is a hit.
        """
        results: list[Optional[PerfCounters]] = [None] * len(inputs_list)
        fresh: dict[KernelCostInputs, Optional[PerfCounters]] = {}
        for i, inputs in enumerate(inputs_list):
            cached = self._memo.get(inputs)
            if cached is not None:
                self.memo_hits += 1
                results[i] = cached
            else:
                fresh.setdefault(inputs, None)
        if fresh:
            unique = list(fresh)
            self.memo_misses += len(unique)
            for inputs, counters in zip(unique,
                                        self._price_vectorized(unique)):
                self._memo[inputs] = counters
                fresh[inputs] = counters
        for i, inputs in enumerate(inputs_list):
            if results[i] is None:
                results[i] = fresh[inputs]
        return results

    def _price_vectorized(self, unique: list[KernelCostInputs],
                          ) -> list[PerfCounters]:
        """Roofline arithmetic for distinct kernels as one array pass."""
        spec = self.spec
        n = len(unique)
        occs = np.empty(n)
        sm_effs = np.empty(n)
        waves = np.empty(n)
        for k, inputs in enumerate(unique):
            occs[k] = achieved_occupancy(
                spec, inputs.grid_size, inputs.block_size,
                inputs.regs_per_thread, inputs.smem_per_block)
            sm_effs[k] = sm_efficiency(
                spec, inputs.grid_size, inputs.block_size,
                inputs.regs_per_thread, inputs.smem_per_block)
            waves[k] = occupancy(spec, inputs.block_size,
                                 inputs.regs_per_thread,
                                 inputs.smem_per_block).blocks_per_wave
        grid = np.array([i.grid_size for i in unique], dtype=np.float64)
        bytes_read = np.array([i.bytes_read for i in unique])
        bytes_written = np.array([i.bytes_written for i in unique])
        fp = np.array([i.fp_instructions for i in unique])

        # Same expressions, same association order as the scalar path.
        utilization = np.maximum(
            _MIN_UTILIZATION,
            np.minimum(1.0, occs / _BANDWIDTH_SATURATION_OCCUPANCY))
        mem_t = (bytes_read + bytes_written) \
            / (spec.dram_bandwidth * utilization)
        coverage = np.maximum(_MIN_UTILIZATION, sm_effs)
        issue = np.maximum(_MIN_UTILIZATION, np.minimum(1.0, occs / 0.25))
        comp_t = fp / (spec.fp32_throughput * coverage * issue)
        wave_floor = np.ceil(grid / waves) * _WAVE_LATENCY
        times = np.maximum(np.maximum(mem_t, comp_t), wave_floor) \
            + _KERNEL_RAMP

        tx = spec.dram_transaction_bytes
        priced = []
        for k, inputs in enumerate(unique):
            time = float(times[k])
            if inputs.num_global_barriers:
                time += inputs.num_global_barriers * global_barrier_latency(
                    spec, inputs.grid_size)
            if inputs.num_atomic_rounds:
                time += inputs.num_atomic_rounds * spec.atomic_latency
            priced.append(PerfCounters(
                dram_read_transactions=math.ceil(inputs.bytes_read / tx),
                dram_write_transactions=math.ceil(
                    inputs.bytes_written / tx),
                inst_fp_32=int(round(inputs.fp_instructions)),
                achieved_occupancy=float(occs[k]),
                sm_efficiency=float(sm_effs[k]),
                duration=time,
            ))
        return priced

    def explain(self, inputs: KernelCostInputs) -> dict[str, float | str]:
        """Break one kernel's price into its components.

        Returns a dict with the three roofline candidates (``memory_time``,
        ``compute_time``, ``wave_floor``), the additive terms
        (``barrier_time``, ``atomic_time``), the utilization inputs
        (``achieved_occupancy``, ``sm_efficiency``) and ``bound_by`` —
        which candidate set the kernel's time.
        """
        terms: dict[str, float | str] = dict(self._roofline(inputs))
        candidates = {"memory": terms["memory_time"],
                      "compute": terms["compute_time"],
                      "wave_floor": terms["wave_floor"]}
        terms["bound_by"] = max(candidates, key=candidates.get)
        return terms

    def price_durations(self, inputs_list: Sequence[KernelCostInputs],
                        ) -> list[float]:
        """Durations only, for callers ranking candidates (the tuner)."""
        return [c.duration for c in self.price_batch(inputs_list)]

    def clear_memo(self) -> None:
        """Drop the price memo (counters stay correct; only re-derived)."""
        self._memo.clear()
        self.memo_hits = 0
        self.memo_misses = 0

    def library_kernel_time(self, flops: float, bytes_moved: float) -> float:
        """Price a compute-intensive library call (cuBLAS/cuDNN path).

        Vendor libraries run near roofline; assume 70% of peak.
        """
        comp_t = flops / (self.spec.fp32_throughput * 0.7)
        mem_t = bytes_moved / (self.spec.dram_bandwidth * 0.7)
        return max(comp_t, mem_t) + _KERNEL_RAMP


class SharedModels:
    """One :class:`KernelCostModel` per spec, shared by Ansor's tuning
    probes, the CLI and every Engine, so a kernel configuration is
    priced once per process.  Creation is locked (caller threads race
    on first use); :meth:`clear` empties each price memo in place."""

    def __init__(self):
        self._models: dict[GPUSpec, KernelCostModel] = {}
        self._lock = threading.Lock()

    def get(self, spec: GPUSpec) -> KernelCostModel:
        """The shared model for ``spec`` (created on first use)."""
        with self._lock:
            model = self._models.get(spec)
            if model is None:
                model = self._models[spec] = KernelCostModel(spec)
            return model

    def clear(self) -> None:
        """Empty every shared model's price memo."""
        with self._lock:
            for model in self._models.values():
                model.clear_memo()

    def __len__(self) -> int:
        return sum(len(model._memo) for model in self._models.values())


_SHARED_MODELS = register("cost-models", SharedModels())


def cost_model_for(spec: GPUSpec) -> KernelCostModel:
    """The process-wide shared :class:`KernelCostModel` for ``spec``."""
    return _SHARED_MODELS.get(spec)
