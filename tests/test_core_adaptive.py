"""Focused unit tests for per-group mapping and launch unification."""

import pytest

from repro.codegen.schedule import MappingKind
from repro.codegen.mapping import (heuristic_mapping, naive_mapping,
                                   root_geometry)
from repro.core.adaptive import UnifiedLaunch, unify_launch
from repro.core.dominants import analyze_scope
from repro.core.scope import identify_stitch_scopes
from repro.gpu.spec import T4, V100
from repro.ir.builder import GraphBuilder
from repro.workloads import micro


def groups_for(graph, merge=True):
    scope = identify_stitch_scopes(graph)[0]
    return analyze_scope(graph, scope.nodes, dominant_merging=merge)


class TestDominantMapping:
    def _reduce_node(self, rows, cols, axes=(1,)):
        b = GraphBuilder()
        x = b.parameter("x", (rows, cols))
        r = b.reduce_sum(x, axes=axes)
        b.output(r)
        return r

    def test_row_reduce_adaptive(self):
        node = self._reduce_node(750_000, 32)
        mapping = heuristic_mapping(root_geometry(node), V100)
        assert mapping.kind is MappingKind.ROW_REDUCE
        assert mapping.rows_per_block > 1

    def test_row_reduce_naive(self):
        node = self._reduce_node(750_000, 32)
        mapping = naive_mapping(root_geometry(node), V100)
        assert mapping.grid_size == 750_000
        assert mapping.block_size == 32

    def test_column_reduce_adaptive(self):
        node = self._reduce_node(1000, 32, axes=(0,))
        mapping = heuristic_mapping(root_geometry(node), V100)
        assert mapping.kind is MappingKind.COLUMN_REDUCE

    def test_elementwise_dominant(self):
        b = GraphBuilder()
        x = b.parameter("x", (4096,))
        t = b.tanh(x)
        b.output(t)
        mapping = heuristic_mapping(root_geometry(t), V100)
        assert mapping.kind is MappingKind.ELEMENTWISE

    def test_wave_limit_respected(self):
        node = self._reduce_node(500_000, 64)
        mapping = heuristic_mapping(root_geometry(node), V100,
                                    wave_limit=100)
        assert mapping.grid_size <= 100

    def test_device_dependence(self):
        node = self._reduce_node(500_000, 64)
        v100 = heuristic_mapping(root_geometry(node), V100,
                                 wave_limit=V100.blocks_per_wave(1024))
        t4 = heuristic_mapping(root_geometry(node), T4,
                               wave_limit=T4.blocks_per_wave(1024))
        # T4 has fewer SMs -> smaller wave -> more vertical packing.
        assert t4.grid_size <= v100.grid_size


class TestUnifyLaunch:
    def test_grid_covers_widest_operator(self):
        # A tiny reduce dominant must not strangle a wide element-wise
        # group sharing the kernel.
        graph = micro.softmax_graph(2, 64)
        analysis = groups_for(graph)
        launch = unify_launch(analysis.groups, V100,
                              needs_barrier=False)
        covered = launch.grid_size * launch.block_size
        widest = max(n.num_elements for g in analysis.groups
                     for n in g.nodes)
        # Vertical packing may fold work, but at least a block per SM's
        # worth of the widest tensor is provisioned when available.
        assert covered >= min(widest, V100.num_sms)

    def test_barrier_caps_grid_at_wave(self):
        graph = micro.column_reduce_chain(size=4096, steps=2)
        analysis = groups_for(graph)
        launch = unify_launch(analysis.groups, V100,
                              needs_barrier=True)
        assert launch.grid_size <= V100.blocks_per_wave(
            launch.block_size)

    def test_returns_group_mappings(self):
        graph = micro.fig7_subgraph(256, 128)
        analysis = groups_for(graph)
        launch = unify_launch(analysis.groups, V100,
                              needs_barrier=False)
        assert isinstance(launch, UnifiedLaunch)
        assert set(launch.group_mappings) == {
            g.group_id for g in analysis.groups}

    def test_atomics_propagated(self):
        graph = micro.row_reduce(64, 30_000)
        analysis = groups_for(graph)
        launch = unify_launch(analysis.groups, V100,
                              needs_barrier=True)
        assert launch.uses_atomics

    def test_as_mapping_prefers_reduce_kind(self):
        graph = micro.softmax_graph(512, 128)
        analysis = groups_for(graph)
        launch = unify_launch(analysis.groups, V100,
                              needs_barrier=False)
        assert launch.as_mapping().kind is MappingKind.ROW_REDUCE
