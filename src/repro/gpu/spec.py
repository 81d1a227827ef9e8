"""GPU device specifications.

The numbers are the public datasheet values for the three devices the paper
evaluates on (V100 for everything, T4 for inference, A100 for the Fig 1
compute/bandwidth-ratio discussion).  Latency constants (kernel launch,
framework scheduling) follow the magnitudes the paper itself quotes:
"kernel launch overhead on the order of 10 microseconds" (Sec 6.4.2).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """Static description of a SIMT device.

    Attributes:
        name: Marketing name.
        num_sms: Streaming multiprocessor count.
        max_threads_per_sm: Resident-thread limit per SM.
        max_blocks_per_sm: Resident-block limit per SM.
        max_threads_per_block: CUDA block-size ceiling.
        registers_per_sm: 32-bit registers per SM.
        max_registers_per_thread: Per-thread register ceiling.
        shared_memory_per_sm: Bytes of shared memory per SM.
        shared_memory_per_block: Default per-block shared-memory limit.
        dram_bandwidth: Off-chip bandwidth in bytes/second.
        fp32_throughput: Peak FP32 instructions/second (FLOP/s, non-FMA).
        warp_size: Threads per warp.
        kernel_launch_latency: Seconds of driver + hardware launch cost per
            kernel (the "order of 10 us" the paper cites).
        framework_op_latency: Seconds of framework scheduling per operator
            issued outside a compiled cluster (TensorFlow executor cost).
        memcpy_latency: Fixed seconds per cudaMemcpy/Memset call.
        atomic_latency: Seconds per cross-block atomic round (task
            splitting's cross-block reduction cost).
        dram_transaction_bytes: Bytes per DRAM transaction (nvprof counts
            32-byte sectors).
    """

    name: str
    num_sms: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    registers_per_sm: int
    max_registers_per_thread: int
    shared_memory_per_sm: int
    shared_memory_per_block: int
    dram_bandwidth: float
    fp32_throughput: float
    warp_size: int = 32
    kernel_launch_latency: float = 10e-6
    framework_op_latency: float = 5e-6
    memcpy_latency: float = 5e-6
    atomic_latency: float = 1.2e-6
    dram_transaction_bytes: int = 32

    def __hash__(self) -> int:
        # Once per object: serving looks a device up by value on every
        # batch.  Never pickled: str hashes differ between processes.
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(dataclasses.astuple(self)))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def max_resident_blocks(self) -> int:
        """Upper bound on blocks resident on the whole device."""
        return self.num_sms * self.max_blocks_per_sm

    def blocks_per_wave(self, block_size: int, regs_per_thread: int = 32,
                        smem_per_block: int = 0) -> int:
        """Max thread blocks the device can co-schedule in one wave.

        This is the quantity AStitch's global barrier must respect
        (Sec 3.2.3) and what resource-aware launch configuration reasons
        about (Sec 4.5).
        """
        from repro.gpu.occupancy import occupancy
        return occupancy(self, block_size, regs_per_thread,
                         smem_per_block).blocks_per_wave


V100 = GPUSpec(
    name="V100",
    num_sms=80,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    shared_memory_per_sm=96 * 1024,
    shared_memory_per_block=48 * 1024,
    dram_bandwidth=900e9,
    fp32_throughput=15.7e12,
)

T4 = GPUSpec(
    name="T4",
    num_sms=40,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    shared_memory_per_sm=64 * 1024,
    shared_memory_per_block=48 * 1024,
    dram_bandwidth=320e9,
    fp32_throughput=8.1e12,
)

# A100 with TF32 as the default math mode: the paper quotes a 5.6x increase
# in the compute/bandwidth ratio over V100, which is what pushes the
# memory-intensive share of execution time from 63.2% to 76.7%.
A100 = GPUSpec(
    name="A100",
    num_sms=108,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    shared_memory_per_sm=164 * 1024,
    shared_memory_per_block=48 * 1024,
    dram_bandwidth=1555e9,
    fp32_throughput=156e12,
)
