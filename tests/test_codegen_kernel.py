"""Tests for kernel construction, cost inputs and the module executor."""

import numpy as np
import pytest

from repro.codegen.builder import (
    kernel_cost_inputs,
    kernel_smem_bytes,
    make_kernel,
    node_work,
)
from repro.codegen.executor import ExecutionError, ModuleExecutor
from repro.codegen.kernel import LibraryCall, MemcpyCall
from repro.codegen import mapping
from repro.gpu.memory import MemorySpace
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.ir.interpreter import evaluate, random_feeds


def softmax_graph(rows=4, cols=64):
    b = GraphBuilder("softmax")
    x = b.parameter("x", (rows, cols))
    mx = b.reduce_max(x, axes=(1,))
    centered = b.subtract(x, b.broadcast_rows(mx, x.shape))
    e = b.exp(centered)
    denom = b.reduce_sum(e, axes=(1,))
    out = b.divide(e, b.broadcast_rows(denom, x.shape))
    b.output(out)
    return b.build()


class TestMakeKernel:
    def test_input_output_inference(self):
        g = softmax_graph()
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        m = mapping.naive_elementwise(4 * 64, V100)
        k = make_kernel(g, nodes, m)
        assert [n.name for n in k.inputs] == ["x"]
        assert [n.name for n in k.outputs] == [g.outputs[0].name]

    def test_cross_kernel_value_becomes_output(self):
        from repro.ir.ops import OpKind, ReduceKind
        g = softmax_graph()
        reduce_max = next(n for n in g.nodes if n.kind is OpKind.REDUCE
                          and n.reduce_kind is ReduceKind.MAX)
        m = mapping.naive_row_reduce(4, 64, V100)
        k = make_kernel(g, [reduce_max], m)
        assert k.outputs == (reduce_max,)

    def test_parameter_in_nodes_rejected(self):
        g = softmax_graph()
        m = mapping.naive_elementwise(1, V100)
        with pytest.raises(ValueError):
            make_kernel(g, [g.parameters[0]], m)

    def test_empty_kernel_rejected(self):
        g = softmax_graph()
        with pytest.raises(ValueError):
            make_kernel(g, [], mapping.naive_elementwise(1, V100))

    def test_scalar_constants_are_immediates(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        y = b.add_scalar(x, 1.0)
        b.output(y)
        g = b.build()
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        k = make_kernel(g, nodes, mapping.naive_elementwise(8, V100))
        assert [n.name for n in k.inputs] == ["x"]


class TestCostInputs:
    def test_node_work_reduce_counts_input(self):
        g = softmax_graph(4, 64)
        reduce_node = next(n for n in g.nodes if n.kind.value == "reduce")
        assert node_work(reduce_node) == 4 * 64

    def test_node_work_broadcast_free(self):
        g = softmax_graph()
        bc = next(n for n in g.nodes if n.kind.value == "broadcast")
        assert node_work(bc) == 0.0

    def test_traffic_single_kernel(self):
        g = softmax_graph(4, 64)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        k = make_kernel(g, nodes, mapping.naive_elementwise(256, V100))
        inputs = kernel_cost_inputs(k)
        assert inputs.bytes_read == 4 * 64 * 4        # x once
        assert inputs.bytes_written == 4 * 64 * 4     # softmax once

    def test_global_placement_adds_roundtrip(self):
        g = softmax_graph(4, 64)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        reduce_node = next(n for n in nodes if n.kind.value == "reduce")
        k_local = make_kernel(g, nodes,
                              mapping.naive_elementwise(256, V100))
        k_global = make_kernel(
            g, nodes, mapping.naive_elementwise(256, V100),
            placements={reduce_node: MemorySpace.GLOBAL})
        local_io = kernel_cost_inputs(k_local)
        global_io = kernel_cost_inputs(k_global)
        extra = reduce_node.num_elements * 4
        assert global_io.bytes_written == local_io.bytes_written + extra
        assert global_io.bytes_read == local_io.bytes_read + extra

    def test_shared_placement_consumes_smem_not_dram(self):
        g = softmax_graph(4, 64)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        reduce_node = next(n for n in nodes if n.kind.value == "reduce")
        k = make_kernel(g, nodes, mapping.naive_elementwise(256, V100),
                        placements={reduce_node: MemorySpace.SHARED})
        assert kernel_smem_bytes(k) > 0
        io = kernel_cost_inputs(k)
        assert io.bytes_read == 4 * 64 * 4

    def test_redundancy_multiplies_instructions(self):
        g = softmax_graph(4, 64)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        exp_node = next(n for n in nodes if n.kind.value == "exp")
        k1 = make_kernel(g, nodes, mapping.naive_elementwise(256, V100))
        k2 = make_kernel(g, nodes, mapping.naive_elementwise(256, V100),
                         redundancy={exp_node: 64.0})
        base = kernel_cost_inputs(k1).fp_instructions
        inflated = kernel_cost_inputs(k2).fp_instructions
        assert inflated - base == pytest.approx(63 * node_work(exp_node))

    def test_splitting_mapping_reports_atomics(self):
        g = softmax_graph(4, 64)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        m = mapping.adaptive_row_reduce(64, 30_000, V100)
        k = make_kernel(g, nodes, m)
        assert kernel_cost_inputs(k).num_atomic_rounds == 1


class TestExecutor:
    def test_single_kernel_matches_interpreter(self):
        g = softmax_graph(3, 17)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        k = make_kernel(g, nodes, mapping.naive_elementwise(64, V100))
        feeds = random_feeds(g, seed=3)
        got = ModuleExecutor(g, [k]).run(feeds)
        want = evaluate(g, feeds)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5)

    def test_two_kernel_pipeline(self):
        from repro.ir.ops import OpKind, ReduceKind
        g = softmax_graph(3, 17)
        # Split: reduce_max kernel first, then the rest.
        reduce_max = next(n for n in g.nodes if n.kind is OpKind.REDUCE
                          and n.reduce_kind is ReduceKind.MAX)
        rest = [n for n in g.nodes
                if n.kind.value != "parameter" and n is not reduce_max]
        k1 = make_kernel(g, [reduce_max],
                         mapping.naive_row_reduce(3, 17, V100))
        k2 = make_kernel(g, rest, mapping.naive_elementwise(64, V100))
        feeds = random_feeds(g, seed=4)
        got = ModuleExecutor(g, [k1, k2]).run(feeds)
        want = evaluate(g, feeds)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5)

    def test_undeclared_read_detected(self):
        from repro.ir.ops import OpKind, ReduceKind
        g = softmax_graph(3, 17)
        reduce_max = next(n for n in g.nodes if n.kind is OpKind.REDUCE
                          and n.reduce_kind is ReduceKind.MAX)
        rest = [n for n in g.nodes
                if n.kind.value != "parameter" and n is not reduce_max]
        # Kernel for `rest` but the producer kernel never runs.
        k2 = make_kernel(g, rest, mapping.naive_elementwise(64, V100))
        with pytest.raises(ExecutionError):
            ModuleExecutor(g, [k2]).run(random_feeds(g))

    def test_missing_graph_output_detected(self):
        from repro.ir.ops import OpKind, ReduceKind
        g = softmax_graph(3, 17)
        reduce_max = next(n for n in g.nodes if n.kind is OpKind.REDUCE
                          and n.reduce_kind is ReduceKind.MAX)
        k1 = make_kernel(g, [reduce_max],
                         mapping.naive_row_reduce(3, 17, V100))
        with pytest.raises(ExecutionError):
            ModuleExecutor(g, [k1]).run(random_feeds(g))

    def test_duplicated_producer_across_kernels(self):
        # XLA-style operator-level redundancy: A inlined into both kernels.
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        a = b.tanh(x)
        out1 = b.exp(a)
        out2 = b.log(a)
        b.output(out1, out2)
        g = b.build()
        m = mapping.naive_elementwise(8, V100)
        k1 = make_kernel(g, [a, out1], m, outputs=[out1])
        k2 = make_kernel(g, [a, out2], m, outputs=[out2])
        feeds = random_feeds(g, seed=5)
        got = ModuleExecutor(g, [k1, k2]).run(feeds)
        want = evaluate(g, feeds)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5)

    def test_library_call_step(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        w = b.parameter("w", (8, 4))
        t = b.tanh(x)
        d = b.dot(t, w)
        out = b.relu(d)
        b.output(out)
        g = b.build()
        m = mapping.naive_elementwise(32, V100)
        k1 = make_kernel(g, [t], m)
        k2 = make_kernel(g, [out], m)
        feeds = random_feeds(g, seed=6)
        got = ModuleExecutor(g, [k1, LibraryCall(d), k2]).run(feeds)
        want = evaluate(g, feeds)
        np.testing.assert_allclose(got[out.name], want[out.name], rtol=1e-5)

    def test_memcpy_step_is_noop(self):
        g = softmax_graph(2, 4)
        nodes = [n for n in g.nodes if n.kind.value != "parameter"]
        k = make_kernel(g, nodes, mapping.naive_elementwise(8, V100))
        feeds = random_feeds(g)
        got = ModuleExecutor(g, [MemcpyCall(64), k]).run(feeds)
        assert set(got) == {g.outputs[0].name}

    def test_library_flops(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        w = b.parameter("w", (8, 16))
        d = b.dot(x, w)
        b.output(d)
        call = LibraryCall(d)
        assert call.flops() == 2 * 4 * 16 * 8
        assert call.bytes_moved() == (4 * 16 + 4 * 8 + 8 * 16) * 4
