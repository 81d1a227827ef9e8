"""Occupancy calculator.

Mirrors the CUDA occupancy calculator the paper cites in Sec 4.5: residency
per SM is the minimum over the block-count, thread-count, register-file and
shared-memory limits, and one *wave* is that residency times the SM count.
"""

from __future__ import annotations

import dataclasses
import math

from repro.gpu.spec import GPUSpec
from repro.store import TieredStore, register

# Distinct (spec, launch config) pairs are few — a handful of specs times
# the block sizes the mapping strategies and the autotuner's candidate
# sweeps emit — so a bounded memo turns every repeated lookup into a
# dict hit.  Entries key on the full GPUSpec value (a frozen dataclass):
# two equal specs share entries, a spec with any field changed cannot
# alias.
_memo = register("occupancy", TieredStore(capacity=4096))


def occupancy_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the occupancy memo."""
    return {"hits": _memo.stats.hits, "misses": _memo.stats.misses,
            "entries": len(_memo), "maxsize": _memo.capacity}


@dataclasses.dataclass(frozen=True)
class OccupancyResult:
    """Residency numbers for one launch configuration.

    Attributes:
        blocks_per_sm: Co-resident blocks per SM.
        blocks_per_wave: Co-resident blocks device-wide (the
            ``C_blocks_per_wave`` of Sec 4.5).
        theoretical_occupancy: Resident warps / max warps per SM, in [0, 1].
        limiting_resource: Which limit bound the residency
            ("blocks" | "threads" | "registers" | "shared_memory").
    """

    blocks_per_sm: int
    blocks_per_wave: int
    theoretical_occupancy: float
    limiting_resource: str


def occupancy(spec: GPUSpec, block_size: int, regs_per_thread: int = 32,
              smem_per_block: int = 0) -> OccupancyResult:
    """Compute residency for a launch configuration (memoized).

    Args:
        spec: Target device.
        block_size: Threads per block (1..max_threads_per_block).
        regs_per_thread: Registers each thread uses.
        smem_per_block: Bytes of shared memory each block allocates.

    Raises:
        ValueError: If the configuration can never be resident (block too
            large, or per-block shared memory above the hardware limit).
    """
    key = (spec, block_size, regs_per_thread, smem_per_block)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    result = _occupancy_uncached(spec, block_size, regs_per_thread,
                                 smem_per_block)
    _memo.put(key, result)
    return result


def _occupancy_uncached(spec: GPUSpec, block_size: int, regs_per_thread: int,
                        smem_per_block: int) -> OccupancyResult:
    if not 1 <= block_size <= spec.max_threads_per_block:
        raise ValueError(f"block size {block_size} outside "
                         f"[1, {spec.max_threads_per_block}]")
    if smem_per_block > spec.shared_memory_per_block:
        raise ValueError(
            f"{smem_per_block} B of shared memory exceeds the per-block "
            f"limit of {spec.shared_memory_per_block} B")
    regs_per_thread = max(1, min(regs_per_thread,
                                 spec.max_registers_per_thread))

    limits = {
        "blocks": spec.max_blocks_per_sm,
        "threads": spec.max_threads_per_sm // block_size,
        "registers": spec.registers_per_sm // (regs_per_thread * block_size),
    }
    if smem_per_block > 0:
        limits["shared_memory"] = spec.shared_memory_per_sm // smem_per_block

    limiting = min(limits, key=limits.get)
    blocks_per_sm = max(0, limits[limiting])
    if blocks_per_sm == 0:
        # Registers alone cannot forbid residency below the per-thread cap;
        # treat as a single resident block (driver would spill registers).
        blocks_per_sm = 1

    warps_per_block = math.ceil(block_size / spec.warp_size)
    max_warps = spec.max_threads_per_sm // spec.warp_size
    theoretical = min(1.0, blocks_per_sm * warps_per_block / max_warps)

    return OccupancyResult(
        blocks_per_sm=blocks_per_sm,
        blocks_per_wave=blocks_per_sm * spec.num_sms,
        theoretical_occupancy=theoretical,
        limiting_resource=limiting,
    )


def achieved_occupancy(spec: GPUSpec, grid_size: int, block_size: int,
                       regs_per_thread: int = 32,
                       smem_per_block: int = 0) -> float:
    """nvprof-style ``achieved_occupancy`` for a *launch*, not just a config.

    Small grids cannot fill every SM, so the achieved value is capped by
    how many blocks actually land per SM — this is exactly the Fig 6(b)
    pathology (64 blocks of 1024 threads on an 80-SM V100).
    """
    theo = occupancy(spec, block_size, regs_per_thread, smem_per_block)
    if grid_size <= 0:
        return 0.0
    resident_blocks_per_sm = min(
        theo.blocks_per_sm,
        grid_size / spec.num_sms,
    )
    warps_per_block = math.ceil(block_size / spec.warp_size)
    max_warps = spec.max_threads_per_sm // spec.warp_size
    return min(1.0, resident_blocks_per_sm * warps_per_block / max_warps)


def sm_efficiency(spec: GPUSpec, grid_size: int, block_size: int,
                  regs_per_thread: int = 32,
                  smem_per_block: int = 0) -> float:
    """nvprof-style ``sm_efficiency``: fraction of cycles any SM is busy.

    Modeled as SM coverage with a tail-wave penalty: full waves keep every
    SM busy; the final partial wave keeps only ``grid % wave`` blocks' worth
    of SMs busy.
    """
    if grid_size <= 0:
        return 0.0
    theo = occupancy(spec, block_size, regs_per_thread, smem_per_block)
    wave = theo.blocks_per_wave
    full_waves, tail = divmod(grid_size, wave)
    # SMs covered during the tail wave.
    tail_coverage = min(1.0, tail / spec.num_sms)
    if full_waves == 0:
        return tail_coverage
    total_waves = full_waves + (1 if tail else 0)
    return (full_waves * 1.0 + (tail_coverage if tail else 0.0)) / total_waves
