"""Focused unit tests for the shared fusion machinery."""

import pytest

from repro.compilers.common import (
    build_root_kernels,
    grow_fusion_group,
    has_external_user,
    tvm_fusion_roots,
    xla_fusion_roots,
)
from repro.codegen.mapping import naive_mapping, root_geometry
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.ir import patterns
from repro.ir.ops import OpKind


def diamond_chain(depth=10, width=64):
    """node = add(node, tanh(node)) repeated: exponential path count."""
    b = GraphBuilder("diamonds")
    node = b.parameter("x", (width,))
    for _ in range(depth):
        node = b.add(node, b.tanh(node))
    b.output(node)
    return b.build(), node


class TestGrowFusionGroup:
    def test_diamond_factors_linear_time(self):
        # 2^40 paths; the reverse-topological accumulation must finish
        # instantly and produce exact factors.
        graph, root = diamond_chain(depth=40)
        component = list(graph.memory_intensive_nodes())
        nodes, redundancy = grow_fusion_group(graph, root, {root},
                                              set(component))
        assert len(nodes) == len(component)
        # The earliest tanh sits under every diamond, so its per-element
        # inlining factor is astronomically larger than the last one's —
        # exactly the path count the old DFS would have enumerated.
        tanh_factors = [redundancy[n] for n in nodes
                        if n.kind is OpKind.TANH]
        assert tanh_factors[0] > 1e9
        assert tanh_factors[-1] == 1.0

    def test_amplification_across_broadcast(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        t = b.tanh(x)
        spread = b.broadcast_rows(t, (4, 32))
        out = b.abs(spread)
        b.output(out)
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        _, redundancy = grow_fusion_group(graph, out, {out},
                                          set(component))
        assert redundancy[t] == pytest.approx(32.0)

    def test_roots_become_inputs(self):
        b = GraphBuilder()
        x = b.parameter("x", (16,))
        r = b.exp(x)
        out = b.log(r)
        b.output(out)
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        nodes, _ = grow_fusion_group(graph, out, {out, r},
                                     set(component))
        assert r not in nodes


class TestRootRules:
    def make_patterns_graph(self):
        b = GraphBuilder()
        x = b.parameter("x", (64, 32))
        r = b.reduce_sum(x, axes=(1,))          # reduce w/ consumer
        spread = b.broadcast_rows(r, (64, 32))
        heavy = b.tanh(spread)                  # heavy...
        spread2 = b.broadcast_rows(
            b.reduce_max(heavy, axes=(1,)), (64, 32))
        out = b.add(heavy, spread2)
        b.output(out)
        return b.build()

    def test_xla_roots_include_reduces(self):
        graph = self.make_patterns_graph()
        component = list(graph.memory_intensive_nodes())
        roots = xla_fusion_roots(graph, component)
        reduce_roots = [r for r in roots if r.kind is OpKind.REDUCE]
        assert len(reduce_roots) == 2

    def test_tvm_fewer_roots_than_xla(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        e = b.parameter("e", (8,))
        p = b.power(x, e)
        spread = b.broadcast_rows(p, (8, 64))
        b.output(b.abs(spread))
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        assert len(tvm_fusion_roots(graph, component)) \
            < len(xla_fusion_roots(graph, component))

    def test_duplication_limit_roots_large_shared_values(self):
        b = GraphBuilder()
        x = b.parameter("x", (1 << 14,))
        shared = b.tanh(x)                      # big, two consumers
        b.output(b.exp(shared))
        b.output(b.log(shared))
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        roots = xla_fusion_roots(graph, component)
        assert shared in roots

    def test_small_shared_values_still_duplicate(self):
        b = GraphBuilder()
        x = b.parameter("x", (32,))
        shared = b.tanh(x)
        b.output(b.exp(shared))
        b.output(b.log(shared))
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        roots = xla_fusion_roots(graph, component)
        assert shared not in roots

    def test_has_external_user(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 8))
        w = b.parameter("w", (8, 8))
        t = b.tanh(x)
        b.output(b.dot(t, w))
        graph = b.build()
        assert has_external_user(graph, t, {t})


class TestNaiveMappingFor:
    def test_reduce_dispatch(self):
        b = GraphBuilder()
        x = b.parameter("x", (100, 32))
        row = b.reduce_sum(x, axes=(1,))
        col = b.reduce_sum(x, axes=(0,))
        b.output(row)
        b.output(col)
        from repro.codegen.schedule import MappingKind
        assert naive_mapping(root_geometry(row), V100).kind \
            is MappingKind.ROW_REDUCE
        assert naive_mapping(root_geometry(col), V100).kind \
            is MappingKind.COLUMN_REDUCE

    def test_elementwise_dispatch(self):
        b = GraphBuilder()
        x = b.parameter("x", (1000,))
        t = b.tanh(x)
        b.output(t)
        from repro.codegen.schedule import MappingKind
        assert naive_mapping(root_geometry(t), V100).kind \
            is MappingKind.ELEMENTWISE


class TestBuildRootKernels:
    def test_outputs_are_roots_only(self):
        b = GraphBuilder()
        x = b.parameter("x", (64, 32))
        r = b.reduce_sum(x, axes=(1,))
        out = b.tanh(b.broadcast_rows(r, (64, 32)))
        b.output(out)
        graph = b.build()
        component = list(graph.memory_intensive_nodes())
        roots = xla_fusion_roots(graph, component)
        kernels = build_root_kernels(
            graph, component, roots,
            lambda root: naive_mapping(root_geometry(root), V100))
        for kernel in kernels:
            assert len(kernel.outputs) == 1
            assert kernel.outputs[0] in roots

    def test_compile_scales_to_big_chains(self):
        import time
        graph, _ = diamond_chain(depth=2000)
        from repro.compilers import XLACompiler
        start = time.perf_counter()
        module = XLACompiler().compile(graph)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert module.kernels()
