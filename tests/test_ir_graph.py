"""Unit tests for graph construction, validation and analyses."""

import copyreg
import io
import pickle

import pytest

from repro.cli import COMPILERS
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import F16
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.graph import NO_ATTRS, Graph, constant_value
from repro.ir.ops import OpKind, ReduceKind
from repro.ir.shape import Shape
from repro.ir import patterns
from repro.ir.patterns import EdgeDependency
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.plan import module_pricing_signature
from repro.workloads import registry


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


class TestNodeLayout:
    """The lean per-node representation: slots, one shared empty attrs
    mapping, and a pickle round trip that keeps both."""

    def test_nodes_have_no_dict(self):
        graph = registry.build("CRNN", batch=3)
        assert not any(hasattr(node, "__dict__") for node in graph)

    def test_attrless_nodes_share_one_empty_mapping(self):
        graph = registry.build("CRNN", batch=3)
        bare = [node for node in graph if not node.attrs]
        assert bare and all(node.attrs is NO_ATTRS for node in bare)
        with pytest.raises(TypeError):
            bare[0].attrs["axes"] = (0,)
        service = CompileService()
        for compiler in COMPILERS.values():
            service.compile(registry.build("CRNN"), compiler(), V100,
                            optimize=True)
        assert len(NO_ATTRS) == 0

    def test_graph_and_module_pickle_round_trip(self, tmp_path):
        """The compile cache's disk tier pickles whole modules; a loaded
        one prices and fingerprints like the original."""
        graph = registry.build("BERT", batch=3)
        clone = pickle.loads(pickle.dumps(graph))
        assert graph_fingerprint(clone) == graph_fingerprint(graph)
        assert [n.name for n in clone.nodes] == [n.name for n in graph.nodes]
        assert all(node.attrs is NO_ATTRS for node in clone if not node.attrs)
        assert clone.users(clone.nodes[0]) and clone.nodes is clone.nodes

        module = COMPILERS["AStitch"]().compile(graph, V100)
        writer = CompileCache(cache_dir=tmp_path)
        writer.put("bert", module)
        loaded = CompileCache(cache_dir=tmp_path).get("bert")
        assert loaded is not module
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(graph)
        assert module_pricing_signature(loaded) \
            == module_pricing_signature(module)


    def test_entry_with_uninterned_shapes_is_a_miss(self, tmp_path):
        """Entries written before shapes were interned pickled each
        ``Shape`` with no constructor arguments, then its slots; they no
        longer rebuild, and the disk tier must report a miss, not
        raise."""
        probe = io.BytesIO()
        _UninternedShapes(probe, protocol=5).dump(Shape((2, 3)))
        assert probe.getvalue() == UNINTERNED_SHAPE_PICKLE
        module = COMPILERS["XLA"]().compile(registry.build("BERT", batch=3),
                                            V100)
        CompileCache(cache_dir=tmp_path).put("bert", module)
        (path,) = tmp_path.glob("*.pkl")
        payload = pickle.loads(path.read_bytes())
        older = io.BytesIO()
        _UninternedShapes(older, protocol=5).dump(payload)
        path.write_bytes(older.getvalue())
        cache = CompileCache(cache_dir=tmp_path)
        assert cache.get("bert") is None
        assert cache.stats.misses == 1


# ``pickle.dumps(Shape((2, 3)), protocol=5)`` under the uninterned Shape.
UNINTERNED_SHAPE_PICKLE = (
    b"\x80\x05\x95G\x00\x00\x00\x00\x00\x00\x00\x8c\x0erepro.ir.shape"
    b"\x94\x8c\x05Shape\x94\x93\x94)\x81\x94N}\x94(\x8c\x05_dims\x94K"
    b"\x02K\x03\x86\x94\x8c\r_num_elements\x94K\x06u\x86\x94b.")


class _UninternedShapes(pickle.Pickler):
    """Pickles every ``Shape`` the way the uninterned one did."""

    def reducer_override(self, obj):
        if type(obj) is Shape:
            return copyreg.__newobj__, (Shape,), (None, {
                "_dims": obj.dims, "_num_elements": obj.num_elements})
        return NotImplemented


class TestGraphViews:
    """``nodes`` and the intensity partitions are built once per graph
    size, not per call."""

    def test_nodes_is_one_tuple_per_size(self):
        graph, (x, *_) = simple_graph()
        assert graph.nodes is graph.nodes
        assert graph.topological_order() is graph.nodes
        before = graph.nodes
        grown = graph.add(OpKind.EXP, (x,), x.shape)
        assert graph.nodes is not before
        assert graph.nodes == (*before, grown)

    def test_library_dispatch_scans_once_per_graph(self, monkeypatch):
        """Each compile's library-dispatch pass asks for the graph's
        compute-intensive nodes; a scan would build a new tuple."""
        answers = []
        scan = Graph.compute_intensive_nodes

        def recording(graph):
            answers.append(scan(graph))
            return answers[-1]

        monkeypatch.setattr(Graph, "compute_intensive_nodes", recording)
        graph = registry.build("BERT", batch=3)
        for compiler in ("XLA", "TVM", "AStitch"):
            COMPILERS[compiler]().compile(graph, V100)
        assert len(answers) >= 3
        assert len({id(answer) for answer in answers}) == 1
        assert len(answers[0]) == sum(
            node.is_compute_intensive() for node in graph)

    def test_views_follow_an_appended_node(self):
        b = GraphBuilder("grow")
        x = b.parameter("x", (4, 8))
        w = b.parameter("w", (8, 8))
        t = b.tanh(x)
        graph = b.graph
        assert graph.compute_intensive_nodes() == ()
        assert graph.memory_intensive_nodes() == (t,)
        d = b.dot(t, w)
        assert graph.compute_intensive_nodes() == (d,)
        assert graph.memory_intensive_nodes() == (t,)
        e = b.exp(d)
        assert graph.memory_intensive_nodes() == (t, e)
        assert graph.compute_intensive_nodes() == (d,)
