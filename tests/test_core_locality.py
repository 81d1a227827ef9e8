"""Focused unit tests for the locality pass and stitching schemes."""

import pytest

from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.core.dominants import analyze_scope
from repro.core.locality import (
    _row_aligned_edge,
    _row_aligned_mapping,
    assign_schemes,
)
from repro.core.adaptive import unify_launch
from repro.core.schemes import SCHEME_TABLE, StitchScheme
from repro.core.scope import identify_stitch_scopes
from repro.gpu.memory import MemorySpace
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.workloads import micro


def scheme_map(graph, dominant_merging=True):
    scope = identify_stitch_scopes(graph)[0]
    analysis = analyze_scope(graph, scope.nodes,
                             dominant_merging=dominant_merging)
    launch = unify_launch(analysis.groups, V100,
                          needs_barrier=analysis.stages > 1)
    return assign_schemes(graph, analysis, launch.group_mappings,
                          scope.node_set)


class TestSchemeTable:
    def test_table1_rows(self):
        assert len(SCHEME_TABLE) == 4
        by_scheme = {row.scheme: row for row in SCHEME_TABLE}
        assert by_scheme[StitchScheme.LOCAL].memory_space \
            is MemorySpace.REGISTER
        assert by_scheme[StitchScheme.REGIONAL].memory_space \
            is MemorySpace.SHARED
        assert by_scheme[StitchScheme.GLOBAL].memory_space \
            is MemorySpace.GLOBAL

    def test_scheme_memory_space_property(self):
        assert StitchScheme.INDEPENDENT.memory_space is MemorySpace.NONE
        assert StitchScheme.LOCAL.memory_space is MemorySpace.REGISTER


class TestRowAlignment:
    def test_elementwise_mapping_aligned(self):
        m = ThreadMapping(MappingKind.ELEMENTWISE, 10, 256)
        assert _row_aligned_mapping(m)

    def test_column_reduce_not_aligned(self):
        m = ThreadMapping(MappingKind.COLUMN_REDUCE, 10, 256)
        assert not _row_aligned_mapping(m)

    def test_split_rows_not_aligned(self):
        m = ThreadMapping(MappingKind.ROW_REDUCE, 20, 1024,
                          blocks_per_row=2)
        assert not _row_aligned_mapping(m)

    def test_row_broadcast_edge_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        bc = b.broadcast_rows(x, (8, 16))
        assert _row_aligned_edge(x, bc)

    def test_column_broadcast_edge_not_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (16,))
        bc = b.broadcast(x, (8, 16), dims=(1,))
        assert not _row_aligned_edge(x, bc)

    def test_transpose_edge_not_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        t = b.transpose(x, (1, 0))
        assert not _row_aligned_edge(x, t)

    def test_row_reduce_edge_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        r = b.reduce_sum(x, axes=(1,))
        assert _row_aligned_edge(x, r)

    def test_column_reduce_edge_not_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        r = b.reduce_sum(x, axes=(0,))
        assert not _row_aligned_edge(x, r)

    def test_elementwise_edge_aligned(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        t = b.tanh(x)
        assert _row_aligned_edge(x, t)


class TestSchemeAssignment:
    def test_softmax_reduces_regional(self):
        graph = micro.softmax_graph(1024, 256)
        schemes = scheme_map(graph)
        assert schemes
        assert all(s is StitchScheme.REGIONAL for s in schemes.values())

    def test_split_rows_go_global(self):
        graph = micro.softmax_graph(8, 30_000)
        schemes = scheme_map(graph)
        assert StitchScheme.GLOBAL in set(schemes.values())

    def test_column_chain_goes_global(self):
        graph = micro.column_reduce_chain(size=64, steps=2)
        schemes = scheme_map(graph)
        assert StitchScheme.GLOBAL in set(schemes.values())

    def test_pure_outputs_have_no_scheme(self):
        # A value with no in-scope consumers is just a kernel output.
        b = GraphBuilder()
        x = b.parameter("x", (64, 64))
        b.output(b.tanh(x))
        graph = b.build()
        schemes = scheme_map(graph)
        assert schemes == {}

    def test_transposed_consumer_goes_global(self):
        b = GraphBuilder()
        x = b.parameter("x", (128, 128))
        r = b.reduce_sum(x, axes=(1,))
        spread = b.broadcast_rows(r, (128, 128))
        t = b.transpose(spread, (1, 0))
        b.output(b.add(t, x))
        graph = b.build()
        schemes = scheme_map(graph)
        # The consumer group's body permutes rows (the transpose), so the
        # reduce's value cannot stay block-local even though the direct
        # reduce -> broadcast edge is row-aligned.
        assert StitchScheme.GLOBAL in set(schemes.values())
