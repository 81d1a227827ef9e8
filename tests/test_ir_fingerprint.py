"""Tests for structural graph fingerprinting."""

import hashlib

import numpy as np
import pytest

from repro.ir import F16, GraphBuilder, graph_fingerprint
from repro.ir.fingerprint import canonical_attr, canonical_form, \
    fingerprints_equal, topology_fingerprint
from repro.ir.ops import ReduceKind
from repro.workloads import WORKLOADS, build, micro

# Recorded value for ``_golden_graph`` below.  This must NEVER change
# across interpreter runs or machines; if it changes because the
# encoding was deliberately revised, FINGERPRINT_VERSION must be bumped
# (which invalidates persistent caches) and this constant re-recorded.
GOLDEN = "421ad9324b9c5b789ea37c60ac7ac615d6141a1179aadca537996a86203f69e8"


# (workload, batch) -> (graph fingerprint, topology fingerprint) of the
# real graphs, recorded like GOLDEN; batch None is the Table 2 build.
REAL_GRAPHS = {
    ("CRNN", None): (
        "b2be437dcde609d4121da8f5bcb4bf905c0e3ce969aedc154c66981c0f1491b9",
        "95a655bd55ac6dff4dab02784825d70abb7c5f2bf0a0cfb82b4e7cc9cf8da945"),
    ("ASR", None): (
        "30ca3a43da4ced231b5dc436fd731127fdc567f174fe45b47fdbf3380d2a1703",
        "eb0d7dea6ab21295b89f1de366efe64932386fda43e3542e114cef6bdb9fd862"),
    ("BERT", None): (
        "f2d4bebcfe667a9228b8ceab1e04e5acd3b997732abb7194a634f13491b5d77b",
        "14206485f2fb20f814836f74bd88b2511f11edd2cd0fd9e699511e1914adc7ce"),
    ("Transformer", None): (
        "e6351edab609093e76d0cdd430722259f9471e8869b6d1aba5440dc3ea03fb4a",
        "01eec468f32de5e88c9b7a1a917ae8486bab2ff406327215eac2f9325c91db97"),
    ("DIEN", None): (
        "ae93cc6440eee105bc1b06c0c7beaedc081560311649578f1c34d1d2c0571b1d",
        "8873c96cd39ef1b8198234a5cd0b01371af17759fcd746d08bc8228bb9edb552"),
    ("CRNN", 7): (
        "24dd3219d8b3cba9fb277e32f30b606dc26e069633e7002a4cf97e9238291729",
        "dbe628b48cabec6a284041ae8ae1e274ec50047068306b6a48de555fbf684a7a"),
    ("BERT", 7): (
        "81f3775f8c0724b52b888659acec68f0059605f57017d11840fb4889c310805b",
        "14206485f2fb20f814836f74bd88b2511f11edd2cd0fd9e699511e1914adc7ce"),
}


def _golden_graph():
    b = GraphBuilder("golden")
    x = b.parameter("x", (4, 8))
    e = b.exp(x)
    s = b.reduce_sum(e, axes=(1,))
    d = b.divide(e, b.broadcast_rows(s, (4, 8)))
    b.output(d)
    return b.build()


class TestStability:
    def test_identical_builds_hash_equal(self):
        assert fingerprints_equal(micro.softmax_graph(16, 8),
                                  micro.softmax_graph(16, 8))

    def test_object_identity_is_irrelevant(self):
        graph = micro.fig7_subgraph(32, 16)
        assert graph_fingerprint(graph) == graph_fingerprint(graph)
        rebuilt = micro.fig7_subgraph(32, 16)
        assert graph is not rebuilt
        assert graph_fingerprint(graph) == graph_fingerprint(rebuilt)

    def test_golden_value_stable_across_runs(self):
        assert graph_fingerprint(_golden_graph()) == GOLDEN

    @pytest.mark.parametrize("workload, batch", sorted(
        REAL_GRAPHS, key=lambda key: (key[0], key[1] or 0)))
    def test_real_graph_digests_stable(self, workload, batch):
        graph = build(workload, batch=batch)
        assert (graph_fingerprint(graph), topology_fingerprint(graph)) \
            == REAL_GRAPHS[workload, batch]

    def test_graph_display_name_is_excluded(self):
        left, right = _golden_graph(), _golden_graph()
        right.name = "renamed"
        assert fingerprints_equal(left, right)

    def test_workloads_all_distinct(self):
        prints = {graph_fingerprint(build(name)) for name in WORKLOADS}
        assert len(prints) == len(WORKLOADS)

    def test_memo_invalidated_by_mutation(self):
        b = GraphBuilder("grown")
        x = b.parameter("x", (4, 4))
        y = b.exp(x)
        before = graph_fingerprint(b.graph)
        b.output(b.add(y, y))
        assert graph_fingerprint(b.graph) != before


class TestSensitivity:
    """Any semantic difference must change the hash."""

    def _base(self, kind="exp", shape=(4, 8), dtype=None, wire_to_exp=True,
              axes=(1,)):
        b = GraphBuilder("probe")
        kwargs = {"dtype": dtype} if dtype else {}
        x = b.parameter("x", shape, **kwargs)
        heavy = getattr(b, kind)(x)
        source = heavy if wire_to_exp else x
        b.output(b.reduce_sum(source, axes=axes))
        return b.build()

    def test_op_kind_changes_hash(self):
        assert not fingerprints_equal(self._base(kind="exp"),
                                      self._base(kind="tanh"))

    def test_shape_changes_hash(self):
        assert not fingerprints_equal(self._base(shape=(4, 8)),
                                      self._base(shape=(8, 4)))

    def test_dtype_changes_hash(self):
        assert not fingerprints_equal(self._base(),
                                      self._base(dtype=F16))

    def test_edge_changes_hash(self):
        # Same node multiset, different wiring: reduce(exp(x)) vs
        # exp(x) dead + reduce(x).
        assert not fingerprints_equal(self._base(wire_to_exp=True),
                                      self._base(wire_to_exp=False))

    def test_attr_changes_hash(self):
        b1 = GraphBuilder("a")
        x1 = b1.parameter("x", (4, 4))
        b1.output(b1.reduce_sum(x1, axes=(0,)))
        b2 = GraphBuilder("a")
        x2 = b2.parameter("x", (4, 4))
        b2.output(b2.reduce_sum(x2, axes=(1,)))
        assert not fingerprints_equal(b1.build(), b2.build())

    def test_reduce_kind_changes_hash(self):
        b1 = GraphBuilder("a")
        b1.output(b1.reduce_sum(b1.parameter("x", (4, 4)), axes=(1,)))
        b2 = GraphBuilder("a")
        b2.output(b2.reduce_max(b2.parameter("x", (4, 4)), axes=(1,)))
        assert not fingerprints_equal(b1.build(), b2.build())

    def test_parameter_name_changes_hash(self):
        # Parameter names are the execution interface (feeds bind by
        # name), so they are part of the fingerprint.
        b1 = GraphBuilder("a")
        b1.output(b1.exp(b1.parameter("x", (4,))))
        b2 = GraphBuilder("a")
        b2.output(b2.exp(b2.parameter("y", (4,))))
        assert not fingerprints_equal(b1.build(), b2.build())

    def test_constant_payload_changes_hash(self):
        b1 = GraphBuilder("a")
        b1.output(b1.constant(np.ones((2, 2), dtype=np.float32)))
        b2 = GraphBuilder("a")
        b2.output(b2.constant(np.zeros((2, 2), dtype=np.float32)))
        assert not fingerprints_equal(b1.build(), b2.build())

    def test_output_set_changes_hash(self):
        b1 = GraphBuilder("a")
        x = b1.parameter("x", (4,))
        e = b1.exp(x)
        b1.output(e)
        b2 = GraphBuilder("a")
        x2 = b2.parameter("x", (4,))
        e2 = b2.exp(x2)
        b2.output(e2)
        b2.output(x2)
        assert not fingerprints_equal(b1.build(), b2.build())


class TestTopology:
    """The shape-erased fingerprint: blind to dims, sensitive to
    everything else, including the two shape predicates it keeps."""

    @staticmethod
    def _spread(rows: int, cols: int, axes=(1,), wire_to_exp=True):
        b = GraphBuilder("spread")
        x = b.parameter("x", (rows, cols))
        heavy = b.exp(x)
        total = b.reduce_sum(heavy if wire_to_exp else x, axes=axes)
        b.output(b.add(heavy, b.broadcast_rows(total, (rows, cols))))
        return b.build()

    @staticmethod
    def _scaled(size: int):
        b = GraphBuilder("scaled")
        x = b.parameter("x", (size,))
        b.output(b.multiply(x, b.constant(1.0, (size,))))
        return b.build()

    def test_dims_are_erased(self):
        small, large = self._spread(4, 8), self._spread(6, 10)
        assert not fingerprints_equal(small, large)
        assert topology_fingerprint(small) == topology_fingerprint(large)

    def test_amplification_flip_changes_hash(self):
        # <4> -> <4,1> no longer amplifies.
        assert topology_fingerprint(self._spread(4, 8)) \
            != topology_fingerprint(self._spread(4, 1))

    def test_scalar_constant_flip_changes_hash(self):
        assert topology_fingerprint(self._scaled(2)) \
            == topology_fingerprint(self._scaled(3))
        assert topology_fingerprint(self._scaled(1)) \
            != topology_fingerprint(self._scaled(2))

    def test_attr_changes_hash(self):
        assert topology_fingerprint(self._spread(4, 4, axes=(1,))) \
            != topology_fingerprint(self._spread(4, 4, axes=(0,)))

    def test_edge_changes_hash(self):
        assert topology_fingerprint(self._spread(4, 8)) \
            != topology_fingerprint(self._spread(4, 8, wire_to_exp=False))

    def test_memoized_with_the_fingerprint(self):
        graph = self._spread(4, 8)
        first = topology_fingerprint(graph)
        graph_fingerprint(graph)
        assert topology_fingerprint(graph) == first


class TestCanonicalEncoding:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fingerprint_hashes_canonical_form(self, workload):
        graph = build(workload)
        assert graph_fingerprint(graph) == hashlib.sha256(
            canonical_form(graph).encode("utf-8")).hexdigest()

    def test_canonical_form_is_readable(self):
        text = canonical_form(_golden_graph())
        assert text.startswith("repro-graph-fingerprint-v")
        assert "reduce" in text and "outputs|" in text

    def test_attr_encoding_distinguishes_types(self):
        assert canonical_attr(1) != canonical_attr(1.0)
        assert canonical_attr(True) != canonical_attr(1)
        assert canonical_attr("1") != canonical_attr(1)
        assert canonical_attr((1, 2)) == canonical_attr([1, 2])
        assert canonical_attr(ReduceKind.SUM) != canonical_attr("sum")

    def test_ndarray_encoding_covers_dtype_and_shape(self):
        a = np.zeros((2, 3), dtype=np.float32)
        assert canonical_attr(a) != canonical_attr(a.astype(np.float64))
        assert canonical_attr(a) != canonical_attr(a.reshape(3, 2))
