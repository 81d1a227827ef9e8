"""Tests for thread-mapping schedules and their constructors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import mapping
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.compilers import (AnsorCompiler, CudaGraphCompiler,
                             FusionStitchingCompiler, TensorFlowCompiler,
                             TensorRTCompiler, TVMCompiler, XLACompiler)
from repro.core import AStitchCompiler
from repro.gpu.occupancy import achieved_occupancy
from repro.gpu.spec import V100
from repro.runtime import Engine
from repro.workloads import registry


class TestThreadMapping:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ThreadMapping(MappingKind.ELEMENTWISE, 0, 256)

    def test_pack_and_split_exclusive(self):
        with pytest.raises(ValueError):
            ThreadMapping(MappingKind.ROW_REDUCE, 10, 1024,
                          rows_per_block=4, blocks_per_row=2)

    def test_threads_per_row_with_packing(self):
        m = ThreadMapping(MappingKind.ROW_REDUCE, 10, 1024, rows_per_block=32)
        assert m.threads_per_row == 32

    def test_threads_per_row_with_splitting(self):
        m = ThreadMapping(MappingKind.ROW_REDUCE, 20, 1024, blocks_per_row=2)
        assert m.threads_per_row == 2048
        assert m.uses_atomics

    def test_output_elements_per_block(self):
        ew = ThreadMapping(MappingKind.ELEMENTWISE, 4, 256,
                           tasks_per_thread=2)
        assert ew.output_elements_per_block() == 512
        rr = ThreadMapping(MappingKind.ROW_REDUCE, 4, 1024, rows_per_block=8)
        assert rr.output_elements_per_block() == 8

    def test_describe_mentions_packing(self):
        m = ThreadMapping(MappingKind.ROW_REDUCE, 4, 1024, rows_per_block=8,
                          tasks_per_thread=3)
        text = m.describe()
        assert "rows/block=8" in text
        assert "tasks/thread=3" in text


class TestNaiveMappings:
    def test_fig6a_shape(self):
        # XLA on <750000,32>: 750k blocks of 32 threads.
        m = mapping.naive_row_reduce(750_000, 32, V100)
        assert m.grid_size == 750_000
        assert m.block_size == 32
        assert achieved_occupancy(V100, m.grid_size, m.block_size) <= 0.5

    def test_fig6b_shape(self):
        # XLA on <64,30000>: 64 blocks of 1024 threads.
        m = mapping.naive_row_reduce(64, 30_000, V100)
        assert m.grid_size == 64
        assert m.block_size == 1024

    def test_naive_elementwise(self):
        m = mapping.naive_elementwise(1000, V100, block_size=256)
        assert m.grid_size == 4
        assert m.block_size == 256

    def test_naive_column_reduce(self):
        m = mapping.naive_column_reduce(1000, 32, V100)
        assert m.kind is MappingKind.COLUMN_REDUCE
        assert m.grid_size == 125


class TestAdaptiveMappings:
    def test_fig8a_horizontal_packing(self):
        # <750000,32>: pack 32 rows of 32 threads into 1024-thread blocks.
        m = mapping.adaptive_row_reduce(750_000, 32, V100)
        assert m.block_size == 1024
        assert m.rows_per_block == 32
        # Grid stays within one wave (160 blocks of 1024 on V100).
        assert m.grid_size <= V100.blocks_per_wave(1024)
        assert m.tasks_per_thread >= 1

    def test_fig8b_task_splitting(self):
        # <64,30000>: split each row across blocks to raise the block count.
        m = mapping.adaptive_row_reduce(64, 30_000, V100)
        assert m.blocks_per_row > 1
        assert m.grid_size > 64
        assert m.grid_size <= V100.blocks_per_wave(1024)
        assert m.uses_atomics

    def test_adaptive_improves_occupancy_fig6a(self):
        naive = mapping.naive_row_reduce(750_000, 32, V100)
        adaptive = mapping.adaptive_row_reduce(750_000, 32, V100)
        occ_naive = achieved_occupancy(V100, naive.grid_size,
                                       naive.block_size)
        occ_adaptive = achieved_occupancy(V100, adaptive.grid_size,
                                          adaptive.block_size)
        assert occ_adaptive > occ_naive

    def test_adaptive_elementwise_capped_at_wave(self):
        m = mapping.adaptive_elementwise(100_000_000, V100)
        assert m.grid_size <= V100.blocks_per_wave(m.block_size)
        assert m.grid_size * m.block_size * m.tasks_per_thread >= 100_000_000

    def test_small_tensor_single_block(self):
        m = mapping.adaptive_elementwise(10, V100)
        assert m.grid_size == 1

    def test_adaptive_column_reduce_capped(self):
        m = mapping.adaptive_column_reduce(1_000_000, 128, V100)
        assert m.grid_size <= V100.blocks_per_wave(1024)

    @given(st.integers(1, 2_000_000), st.integers(1, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_row_reduce_covers_all_rows(self, rows, width):
        m = mapping.adaptive_row_reduce(rows, width, V100)
        if m.blocks_per_row > 1:
            covered = m.grid_size // m.blocks_per_row
        else:
            covered = m.grid_size * m.rows_per_block * m.tasks_per_thread
        assert covered >= rows if m.blocks_per_row == 1 else covered == rows

    @given(st.integers(1, 2_000_000), st.integers(1, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_adaptive_grid_always_barrier_legal(self, rows, width):
        m = mapping.adaptive_row_reduce(rows, width, V100)
        assert m.grid_size <= V100.blocks_per_wave(1024)
        assert m.block_size <= 1024

    def test_reduce_geometry(self):
        from repro.ir.shape import Shape
        rows, width = mapping.reduce_geometry(Shape((64, 30_000)), (1,))
        assert (rows, width) == (64, 30_000)
        rows, width = mapping.reduce_geometry(Shape((64, 30_000)), (0,))
        assert (rows, width) == (30_000, 64)


class TestDegenerateShapes:
    """Empty/single-element tensors and broken wave caps must still
    produce legal launches through every adaptive constructor."""

    def test_zero_rows_row_reduce(self):
        m = mapping.adaptive_row_reduce(0, 128, V100)
        assert m.grid_size >= 1 and m.block_size >= 1

    def test_width_one_row_reduce(self):
        m = mapping.adaptive_row_reduce(1000, 1, V100)
        assert m.grid_size >= 1
        assert m.blocks_per_row == 1  # nothing to split in a 1-wide row

    def test_single_element_row_reduce(self):
        m = mapping.adaptive_row_reduce(1, 1, V100)
        assert m.grid_size == 1
        assert m.block_size >= 1

    def test_zero_elements_elementwise(self):
        m = mapping.adaptive_elementwise(0, V100)
        assert m.grid_size >= 1 and m.block_size >= 1

    def test_zero_size_column_reduce(self):
        m = mapping.adaptive_column_reduce(0, 0, V100)
        assert m.grid_size >= 1 and m.block_size >= 1

    @pytest.mark.parametrize("wave_limit", [0, -1, 1])
    def test_degenerate_wave_limit_elementwise(self, wave_limit):
        m = mapping.adaptive_elementwise(10_000, V100,
                                         wave_limit=wave_limit)
        assert m.grid_size >= 1
        assert m.grid_size <= max(1, wave_limit)

    @pytest.mark.parametrize("wave_limit", [0, -1, 1])
    def test_degenerate_wave_limit_row_reduce(self, wave_limit):
        m = mapping.adaptive_row_reduce(5000, 64, V100,
                                        wave_limit=wave_limit)
        assert m.grid_size >= 1
        assert m.grid_size <= max(1, wave_limit)

    @pytest.mark.parametrize("wave_limit", [0, -1, 1])
    def test_degenerate_wave_limit_column_reduce(self, wave_limit):
        m = mapping.adaptive_column_reduce(5000, 64, V100,
                                           wave_limit=wave_limit)
        assert m.grid_size >= 1
        assert m.grid_size <= max(1, wave_limit)

    def test_block_size_respects_device_ceiling(self):
        small = dataclasses_replace_max_threads(512)
        m = mapping.adaptive_elementwise(1_000_000, small,
                                         block_size=1024)
        assert m.block_size <= 512

    def test_reduce_geometry_zero_length_axis(self):
        from repro.ir.shape import Shape
        rows, width = mapping.reduce_geometry(Shape((0, 128)), (1,))
        assert rows >= 1 and width >= 1

    def test_reduce_geometry_single_element(self):
        from repro.ir.shape import Shape
        rows, width = mapping.reduce_geometry(Shape((1,)), (0,))
        assert (rows, width) == (1, 1)


def dataclasses_replace_max_threads(limit):
    import dataclasses
    return dataclasses.replace(V100, name=f"V100-{limit}",
                               max_threads_per_block=limit)


class TestDeviceBlockCeiling:
    """Every compiler, naive or adaptive, maps within the device's
    ``max_threads_per_block``."""

    @pytest.mark.parametrize("workload", registry.inference_workloads())
    def test_registry_plans_on_512_thread_device(self, workload):
        small = dataclasses_replace_max_threads(512)
        graph = registry.build_cached(workload)
        for compiler in (TensorFlowCompiler, XLACompiler, TVMCompiler,
                         TensorRTCompiler, AnsorCompiler, CudaGraphCompiler,
                         FusionStitchingCompiler, AStitchCompiler):
            module = compiler().compile(graph, small)
            assert Engine(small).plan(module).total_time > 0
            assert max(kernel.mapping.block_size
                       for kernel in module.kernels()) <= 512
