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
        # DRAM bandwidth is derated by occupancy, FP throughput by SM
        # coverage; per-SM issue also needs warps (occupancy, softly).
        utilization = max(_MIN_UTILIZATION,
                          min(1.0, occ / _BANDWIDTH_SATURATION_OCCUPANCY))
        coverage = max(_MIN_UTILIZATION, sm_eff)
        issue = max(_MIN_UTILIZATION, min(1.0, occ / 0.25))
        return {
            "memory_time": (inputs.bytes_read + inputs.bytes_written)
            / (spec.dram_bandwidth * utilization),
            "compute_time": inputs.fp_instructions
            / (spec.fp32_throughput * coverage * issue),
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
        """Price many kernels in one :meth:`_roofline_arrays` pass.

        Bit-identical to calling :meth:`price` per kernel.  Results are
        deduplicated against — and seeded into — the price memo, so a
        scalar re-price later is a hit.
        """
        known = [self._memo.get(inputs) for inputs in inputs_list]
        unique = list(dict.fromkeys(
            inputs for inputs, hit in zip(inputs_list, known) if hit is None))
        self.memo_hits += sum(hit is not None for hit in known)
        if not unique:
            return known
        self.memo_misses += len(unique)
        spec = self.spec
        grid, block, regs, smem, atomic_rounds = np.array([
            (i.grid_size, i.block_size, i.regs_per_thread,
             i.smem_per_block, i.num_atomic_rounds) for i in unique],
            dtype=np.int64).T
        times, occs, sm_effs = self._roofline_arrays(
            grid, block, regs, smem,
            np.array([i.bytes_read for i in unique]),
            np.array([i.bytes_written for i in unique]),
            np.array([i.fp_instructions for i in unique]), atomic_rounds,
            np.array([i.num_global_barriers * global_barrier_latency(
                spec, i.grid_size) if i.num_global_barriers else 0.0
                for i in unique]))
        tx = spec.dram_transaction_bytes
        fresh = {inputs: PerfCounters(
            dram_read_transactions=math.ceil(inputs.bytes_read / tx),
            dram_write_transactions=math.ceil(inputs.bytes_written / tx),
            inst_fp_32=int(round(inputs.fp_instructions)),
            achieved_occupancy=occ,
            sm_efficiency=sm_eff,
            duration=time,
        ) for inputs, time, occ, sm_eff in zip(
            unique, times.tolist(), occs.tolist(), sm_effs.tolist())}
        self._memo.update(fresh)
        return [fresh[inputs] if hit is None else hit
                for inputs, hit in zip(inputs_list, known)]

    def launch_durations(self, grid: np.ndarray, block: np.ndarray,
                         bytes_read: np.ndarray, bytes_written: np.ndarray,
                         fp_instructions: np.ndarray,
                         atomic_rounds: np.ndarray,
                         regs_per_thread: int = 32,
                         smem_per_block: int = 0) -> np.ndarray:
        """Durations of barrier-free launches given as columns, for
        callers ranking candidates (the launch tuner): bit-identical to
        :meth:`_price_uncached`, but the price memo is neither read nor
        written and no :class:`PerfCounters` is built."""
        return self._roofline_arrays(
            grid, block, np.full(len(grid), regs_per_thread),
            np.full(len(grid), smem_per_block), bytes_read, bytes_written,
            fp_instructions, atomic_rounds, 0.0)[0]

    def _roofline_arrays(self, grid: np.ndarray, block: np.ndarray,
                         regs: np.ndarray, smem: np.ndarray,
                         bytes_read: np.ndarray, bytes_written: np.ndarray,
                         fp: np.ndarray, atomic_rounds: np.ndarray,
                         barrier_time: np.ndarray | float,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(duration, achieved occupancy, SM efficiency) columns of many
        launches, with one ``occupancy()`` lookup per distinct (block,
        regs, smem).  Every term follows the scalar :meth:`_roofline`'s
        exact operation order (IEEE-754 ops are correctly rounded either
        way, and every integer here is exact in float64)."""
        spec = self.spec
        # Mixed-radix key of (block, regs, smem): equal keys, equal
        # configurations, for the non-negative integers launches carry.
        regs_radix, smem_radix = int(regs.max()) + 1, int(smem.max()) + 1
        _, first, inverse = np.unique(
            (block * regs_radix + regs) * smem_radix + smem,
            return_index=True, return_inverse=True)
        per_sm = np.array([
            occupancy(spec, *config).blocks_per_sm for config in zip(
                block[first].tolist(), regs[first].tolist(),
                smem[first].tolist())], dtype=np.int64)[inverse.reshape(-1)]
        wave = per_sm * spec.num_sms

        # achieved_occupancy (a grid of 0 yields 0.0, as there).
        warps_per_block = -(-block // spec.warp_size)
        max_warps = spec.max_threads_per_sm // spec.warp_size
        resident = np.minimum(per_sm, grid / spec.num_sms)
        occs = np.minimum(1.0, resident * warps_per_block / max_warps)

        # sm_efficiency: with no full wave, (0 + tail) / 1 is the tail
        # coverage exactly.
        full_waves, tail = np.divmod(grid, wave)
        tail_coverage = np.minimum(1.0, tail / spec.num_sms)
        sm_effs = (full_waves + tail_coverage) \
            / np.maximum(1, full_waves + (tail > 0))

        utilization = np.maximum(
            _MIN_UTILIZATION,
            np.minimum(1.0, occs / _BANDWIDTH_SATURATION_OCCUPANCY))
        mem_t = (bytes_read + bytes_written) \
            / (spec.dram_bandwidth * utilization)
        coverage = np.maximum(_MIN_UTILIZATION, sm_effs)
        issue = np.maximum(_MIN_UTILIZATION, np.minimum(1.0, occs / 0.25))
        comp_t = fp / (spec.fp32_throughput * coverage * issue)
        wave_floor = np.ceil(grid / wave) * _WAVE_LATENCY
        times = np.maximum(np.maximum(mem_t, comp_t), wave_floor) \
            + _KERNEL_RAMP
        times = times + barrier_time
        times = times + atomic_rounds * spec.atomic_latency
        return times, occs, sm_effs

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
