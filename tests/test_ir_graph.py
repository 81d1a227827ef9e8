"""Unit tests for graph construction, validation and analyses."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import F16
from repro.ir.graph import Graph, constant_value
from repro.ir.ops import OpKind, ReduceKind
from repro.ir import patterns
from repro.ir.patterns import EdgeDependency


def simple_graph():
    b = GraphBuilder("simple")
    x = b.parameter("x", (2, 128))
    y = b.parameter("y", (2, 128))
    s = b.add(x, y)
    t = b.tanh(s)
    b.output(t)
    return b.build(), (x, y, s, t)


class TestGraphConstruction:
    def test_unique_names(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        a1 = b.tanh(x)
        a2 = b.tanh(x)
        assert a1.name != a2.name

    def test_foreign_operand_rejected(self):
        b1 = GraphBuilder()
        x = b1.parameter("x", (4,))
        g2 = Graph("other")
        with pytest.raises(ValueError):
            g2.add(OpKind.TANH, (x,), (4,))

    def test_arity_checked(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        with pytest.raises(ValueError):
            b.graph.add(OpKind.ADD, (x,), (4,))

    def test_users_tracked(self):
        g, (x, y, s, t) = simple_graph()
        assert g.users(s) == (t,)
        assert g.users(x) == (s,)
        assert g.users(t) == ()

    def test_outputs_default_to_sinks(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        t = b.tanh(x)
        assert b.build().outputs == (t,)

    def test_marked_outputs(self):
        g, (_, _, s, t) = simple_graph()
        assert g.outputs == (t,)

    def test_mark_output_foreign_node(self):
        g, _ = simple_graph()
        b2 = GraphBuilder()
        z = b2.parameter("z", (1,))
        with pytest.raises(ValueError):
            g.mark_output(z)

    def test_len_iter_contains(self):
        g, nodes = simple_graph()
        assert len(g) == 4
        assert set(g) == set(nodes)
        assert nodes[0] in g


class TestBuilderInference:
    def test_binary_shape_mismatch(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        y = b.parameter("y", (5,))
        with pytest.raises(ValueError):
            b.add(x, y)

    def test_reduce_shape(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        r = b.reduce_sum(x, axes=(1,))
        assert r.shape == (8,)
        assert r.reduce_kind is ReduceKind.SUM

    def test_reduce_all_axes_gives_scalar(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        r = b.reduce_sum(x, axes=(0, 1))
        assert r.shape.is_scalar()

    def test_row_vs_column_reduce(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        row = b.reduce_sum(x, axes=(1,))
        col = b.reduce_sum(x, axes=(0,))
        assert row.is_row_reduce()
        assert col.is_column_reduce()

    def test_broadcast_rows(self):
        b = GraphBuilder()
        x = b.parameter("x", (2,))
        bc = b.broadcast_rows(x, (2, 128))
        assert bc.shape == (2, 128)
        assert bc.broadcast_dims == (0,)

    def test_reshape_element_count_checked(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 4))
        with pytest.raises(ValueError):
            b.reshape(x, (5, 5))

    def test_transpose_permutation_checked(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        t = b.transpose(x, (1, 0))
        assert t.shape == (8, 4)
        with pytest.raises(ValueError):
            b.transpose(x, (0, 0))

    def test_dot_shapes(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        w = b.parameter("w", (8, 16))
        d = b.dot(x, w)
        assert d.shape == (4, 16)
        with pytest.raises(ValueError):
            b.dot(x, x)

    def test_batch_matmul_shapes(self):
        b = GraphBuilder()
        x = b.parameter("x", (2, 4, 8))
        y = b.parameter("y", (2, 8, 16))
        m = b.batch_matmul(x, y)
        assert m.shape == (2, 4, 16)

    def test_scalar_convenience(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 4))
        y = b.add_scalar(x, 1.0)
        assert y.shape == x.shape

    def test_validate_catches_bad_reduce_shape(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        g = b.graph
        g.add(OpKind.REDUCE, (x,), (9,), axes=(1,),
              reduce_kind=ReduceKind.SUM)
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_lists_every_violation(self):
        b = GraphBuilder()
        x = b.parameter("x", (8, 16))
        h = b.parameter("h", (8, 16), dtype=F16)
        g = b.graph
        g.add(OpKind.REDUCE, (x,), (9,), axes=(1,),
              reduce_kind=ReduceKind.SUM)
        g.add(OpKind.ADD, (x, h), (8, 16))
        with pytest.raises(ValueError, match="2 IR invariant") as error:
            g.validate()
        assert "should give" in str(error.value)
        assert "is f16" in str(error.value)

    def test_validate_accepts_splat_constant(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        b.output(b.multiply(x, b.constant(2.0, (4,))))
        b.build().validate()

    def test_constant_value_materialization(self):
        b = GraphBuilder()
        c = b.constant(2.5)
        assert constant_value(c).item() == pytest.approx(2.5)


class TestPatterns:
    def test_edge_dependency_broadcast(self):
        b = GraphBuilder()
        x = b.parameter("x", (2,))
        bc = b.broadcast_rows(x, (2, 128))
        assert patterns.edge_dependency(x, bc) is EdgeDependency.ONE_TO_MANY

    def test_edge_dependency_reduce(self):
        b = GraphBuilder()
        x = b.parameter("x", (2, 128))
        r = b.reduce_sum(x, axes=(1,))
        assert patterns.edge_dependency(x, r) is EdgeDependency.MANY_TO_ONE

    def test_edge_dependency_elementwise(self):
        b = GraphBuilder()
        x = b.parameter("x", (2, 128))
        t = b.tanh(x)
        assert patterns.edge_dependency(x, t) is EdgeDependency.ONE_TO_ONE

    def test_heavy_followed_by_broadcast(self):
        # The Fig 5 micro pattern: power<2> -> broadcast<2,128> -> add.
        b = GraphBuilder()
        x = b.parameter("x", (2,))
        e = b.parameter("e", (2,))
        p = b.power(x, e)
        bc = b.broadcast_rows(p, (2, 128))
        y = b.parameter("y", (2, 128))
        b.add(bc, y)
        g = b.build()
        assert patterns.is_heavy_followed_by_broadcast(g, p)
        assert patterns.creates_one_to_many(g, p)

    def test_light_op_not_flagged(self):
        b = GraphBuilder()
        x = b.parameter("x", (2,))
        n = b.negate(x)
        b.broadcast_rows(n, (2, 128))
        g = b.build()
        assert not patterns.is_heavy_followed_by_broadcast(g, n)

    def test_reduce_with_consumers(self):
        b = GraphBuilder()
        x = b.parameter("x", (2, 128))
        r = b.reduce_sum(x, axes=(1,))
        b.tanh(r)
        g = b.build()
        assert patterns.is_reduce_with_consumers(g, r)

    def test_components_split_by_compute_intensive(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        w = b.parameter("w", (8, 8))
        t1 = b.tanh(x)
        d = b.dot(t1, w)
        t2 = b.tanh(d)
        b.output(t2)
        g = b.build()
        comps = patterns.memory_intensive_components(g)
        comp_sets = [set(c) for c in comps]
        assert {t1} in comp_sets
        assert {t2} in comp_sets

    def test_operator_fan_out(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        t = b.tanh(x)
        b.exp(t)
        b.log(t)
        g = b.build()
        assert patterns.operator_fan_out(g, t) == 2
