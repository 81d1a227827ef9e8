"""Tests for the graph simplification (:func:`repro.ir.passes.optimize`).

Each rule is checked on ``optimize``'s output graph and on its report's
per-rule counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import F64
from repro.ir.graph import Graph, constant_value
from repro.ir.interpreter import evaluate, random_feeds
from repro.ir.ops import OpKind
from repro.ir.passes import (
    ALGEBRAIC,
    CSE,
    DCE,
    FOLDING,
    SIMPLIFY_MEMO,
    optimize,
)
from repro.workloads import build

from tests.test_property_compilers import random_graphs


class TestDeadCodeElimination:
    def test_removes_unused_chain(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        live = b.tanh(x)
        dead = b.exp(b.log(x))  # noqa: F841 — intentionally dead
        b.output(live)
        graph = b.build()
        optimized, report = optimize(graph)
        assert report.changes == {ALGEBRAIC: 0, FOLDING: 0, CSE: 0, DCE: 2}
        assert len(optimized) == len(graph) - 2

    def test_keeps_parameters(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        unused = b.parameter("unused", (8,))
        b.output(b.tanh(x))
        optimized, _ = optimize(b.build())
        assert len(optimized.parameters) == 2

    def test_noop_returns_same_graph(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        b.output(b.tanh(x))
        graph = b.build()
        optimized, report = optimize(graph)
        assert report.total_changes == 0
        assert optimized is graph


class TestCse:
    def test_merges_identical_subtrees(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        a = b.tanh(x)
        c = b.tanh(x)
        b.output(b.add(a, c))
        optimized, report = optimize(b.build())
        assert report.changes[CSE] == 1
        tanh_count = sum(1 for n in optimized
                         if n.kind is OpKind.TANH)
        assert tanh_count == 1

    def test_respects_attrs(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        r1 = b.reduce_sum(x, axes=(0,))
        r2 = b.reduce_sum(x, axes=(1,))
        b.output(b.reduce_sum(b.broadcast_rows(r2, (8, 4))
                              if False else r1, axes=(0,)))
        b.output(r2)
        _, report = optimize(b.build())
        assert report.changes[CSE] == 0

    def test_cascading_merge(self):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        left = b.exp(b.tanh(x))
        right = b.exp(b.tanh(x))
        b.output(b.add(left, right))
        _, report = optimize(b.build())
        assert report.changes[CSE] == 2


def _twin_constant_graph(left, right, dtype=None):
    """x*left - x*right as the output, with the two constants kept apart
    from constant folding by the parameter."""
    b = GraphBuilder()
    kwargs = {} if dtype is None else {"dtype": dtype}
    x = b.parameter("x", left.shape, **kwargs)
    scaled = [b.multiply(x, b.constant(payload, payload.shape, **kwargs))
              for payload in (left, right)]
    b.output(b.subtract(*scaled))
    return b.build()


class TestExactCse:
    """CSE merges constants only when their payloads are bit-identical."""

    def test_large_constants_differing_mid_payload_stay_apart(self):
        left = np.zeros(2000, dtype=np.float32)
        right = left.copy()
        right[1000] = 1.0
        graph = _twin_constant_graph(left, right)
        optimized, report = optimize(graph)
        assert report.changes[CSE] == 0
        feeds = {"x": np.ones(2000, dtype=np.float32)}
        out = graph.outputs[0].name
        want = evaluate(graph, feeds)[out]
        assert want[1000] == -1.0
        np.testing.assert_array_equal(evaluate(optimized, feeds)[out], want)

    def test_float64_constants_beyond_eight_digits_stay_apart(self):
        graph = _twin_constant_graph(np.array([1.000000001]),
                                     np.array([1.000000002]), dtype=F64)
        _, report = optimize(graph)
        assert report.changes[CSE] == 0

    def test_signed_zeros_stay_apart(self):
        graph = _twin_constant_graph(np.array([0.0], dtype=np.float32),
                                     np.array([-0.0], dtype=np.float32))
        _, report = optimize(graph)
        assert report.changes[CSE] == 0

    def test_equal_large_constants_merge(self):
        payload = np.arange(2000, dtype=np.float32)
        graph = _twin_constant_graph(payload, payload.copy())
        _, report = optimize(graph)
        assert report.changes[CSE] == 2  # the constant, then its multiply

    def test_broadcast_payloads_compare_every_row(self):
        # Stride-0 views (what folded broadcasts are) that differ only
        # mid-row, and a third equal to the first.
        row = np.zeros(16, dtype=np.float32)
        other = row.copy()
        other[8] = 1.0
        payloads = [np.broadcast_to(r, (2000, 16))
                    for r in (row, other, row.copy())]
        b = GraphBuilder()
        x = b.parameter("x", (2000, 16))
        scaled = [b.multiply(x, b.constant(p, p.shape)) for p in payloads]
        b.output(b.add(b.subtract(scaled[0], scaled[1]), scaled[2]))
        _, report = optimize(b.build())
        assert report.changes[CSE] == 2  # the third constant and its multiply


# (workload, training, nodes built, nodes after simplification).  An
# over-eager merge (as ``repr(ndarray)`` keys once made) or a lost rule
# moves the second count.
REGISTRY_COUNTS = [
    pytest.param(name, training, before, after,
                 id=f"{name}-train" if training else name)
    for name, training, before, after in (
        ("ASR", False, 989, 917),
        ("BERT", False, 1146, 1074),
        ("CRNN", False, 1819, 1298),
        ("DIEN", False, 2838, 2439),
        ("Transformer", False, 32834, 29669),
        ("BERT", True, 1299, 1216),
        ("DIEN", True, 2854, 2455),
        ("Transformer", True, 576, 535),
    )
]


@pytest.mark.parametrize("name, training, before, after", REGISTRY_COUNTS)
def test_registry_simplified_node_counts(name, training, before, after,
                                         fresh_caches):
    graph = build(name, training=training)
    optimized, _ = optimize(graph)
    assert (len(graph), len(optimized)) == (before, after)
    SIMPLIFY_MEMO.clear()  # sweep again rather than hit the memo
    again, report = optimize(optimized)
    assert report.total_changes == 0
    assert again is optimized


class TestConstantFolding:
    def test_folds_constant_arithmetic(self):
        b = GraphBuilder()
        one = b.constant(1.0, (4,))
        two = b.constant(2.0, (4,))
        folded_src = b.add(one, two)
        x = b.parameter("x", (4,))
        b.output(b.multiply(x, folded_src))
        optimized, report = optimize(b.build())
        assert report.changes[FOLDING] == 1
        const = next(n for n in optimized if n.kind is OpKind.CONSTANT
                     and n.name.startswith("folded"))
        np.testing.assert_allclose(constant_value(const), 3.0)

    def test_leaves_parameter_dependent_ops_alone(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        b.output(b.add_scalar(x, 1.0))
        graph = b.build()
        optimized, _ = optimize(graph)
        # The broadcast constant may fold, but the add depends on the
        # parameter and must survive.
        assert any(n.kind is OpKind.ADD for n in optimized)

    def test_folds_through_broadcast(self):
        b = GraphBuilder()
        c = b.constant(2.0, ())
        spread = b.broadcast(c, (4, 4), dims=())
        x = b.parameter("x", (4, 4))
        b.output(b.add(x, spread))
        optimized, report = optimize(b.build())
        assert report.changes[FOLDING] == 1  # the broadcast
        assert [n.kind for n in optimized] == [
            OpKind.CONSTANT, OpKind.PARAMETER, OpKind.ADD]


class TestAlgebraicSimplification:
    def _roundtrip(self, build_fn):
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        # Keep the rewrite target interior: output nodes are never
        # rewritten away (module-signature stability).
        b.output(b.tanh(build_fn(b, x)))
        graph = b.build()
        optimized, report = optimize(graph)
        feeds = random_feeds(graph, seed=3)
        want = evaluate(graph, feeds)
        got = evaluate(optimized, feeds)
        out_name = graph.outputs[0].name
        opt_name = optimized.outputs[0].name
        np.testing.assert_allclose(got[opt_name], want[out_name],
                                   rtol=1e-6)
        return report.changes[ALGEBRAIC]

    def test_add_zero(self):
        assert self._roundtrip(lambda b, x: b.add_scalar(x, 0.0)) == 1

    def test_mul_one(self):
        assert self._roundtrip(lambda b, x: b.mul_scalar(x, 1.0)) == 1

    def test_div_one(self):
        assert self._roundtrip(
            lambda b, x: b.divide(x, b.scalar_like(1.0, x))) == 1

    def test_double_negate(self):
        assert self._roundtrip(
            lambda b, x: b.negate(b.negate(x))) >= 1

    def test_identity_reshape(self):
        assert self._roundtrip(lambda b, x: b.reshape(x, (8,))) == 1

    def test_identity_transpose(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        b.output(b.tanh(b.transpose(x, (0, 1))))
        _, report = optimize(b.build())
        assert report.changes[ALGEBRAIC] == 1

    def test_reshape_of_reshape(self):
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        b.output(b.tanh(b.reshape(b.reshape(x, (32,)), (8, 4))))
        # The rewrite bypasses the inner reshape; DCE then removes it.
        optimized, _ = optimize(b.build())
        reshapes = [n for n in optimized if n.kind is OpKind.RESHAPE]
        assert len(reshapes) == 1

    def test_rule_built_node_is_simplified_again(self):
        # reshape(reshape(x)) back to x's own shape: the rule builds
        # reshape(x), which must itself collapse to x in the same sweep.
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        b.output(b.tanh(b.reshape(b.reshape(x, (32,)), (4, 8))))
        optimized, report = optimize(b.build())
        assert [n.kind for n in optimized] == [OpKind.PARAMETER,
                                               OpKind.TANH]
        assert report.changes[ALGEBRAIC] == 2

    def test_scalar_seen_before_its_broadcast_folds(self):
        # broadcast(1.0) folds into a full-size constant before the
        # multiply is rewritten; the rule must still see the scalar.
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        b.output(b.tanh(b.mul_scalar(x, 1.0)))
        optimized, report = optimize(b.build())
        assert [n.kind for n in optimized] == [OpKind.PARAMETER,
                                               OpKind.TANH]
        assert (report.changes[FOLDING], report.changes[ALGEBRAIC]) \
            == (1, 1)

    def test_scalar_that_folding_produces(self):
        # 1.0 - 1.0 is only a zero once folded: the rule must look at the
        # folded operand too.
        b = GraphBuilder()
        x = b.parameter("x", ())
        zero = b.subtract(b.constant(1.0), b.constant(1.0))
        b.output(b.tanh(b.add(x, zero)))
        optimized, report = optimize(b.build())
        assert [n.kind for n in optimized] == [OpKind.PARAMETER,
                                               OpKind.TANH]
        assert report.changes[ALGEBRAIC] == 1


class TestPipeline:
    def test_fixpoint_composition(self):
        # x*1 + 0 with a dead branch and a duplicate subtree: every rule
        # fires, and the result is just tanh(x) twice merged.
        b = GraphBuilder()
        x = b.parameter("x", (16,))
        noisy = b.add_scalar(b.mul_scalar(x, 1.0), 0.0)
        dup1 = b.tanh(noisy)
        dup2 = b.tanh(b.add_scalar(x, 0.0))
        b.exp(x)  # dead
        b.output(b.add(dup1, dup2))
        graph = b.build()
        optimized, report = optimize(graph)
        assert report.total_changes >= 4
        assert len(optimized) < len(graph)
        tanh_count = sum(1 for n in optimized if n.kind is OpKind.TANH)
        assert tanh_count == 1

    def test_report_counts(self):
        b = GraphBuilder()
        x = b.parameter("x", (4,))
        b.output(b.tanh(b.add_scalar(x, 0.0)))
        _, report = optimize(b.build())
        assert report.changes[ALGEBRAIC] == 1
        assert report.iterations == 1

    @given(random_graphs(identities=True))
    @settings(max_examples=30, deadline=None)
    def test_optimize_preserves_numerics(self, graph):
        optimized, _ = optimize(graph)
        feeds = random_feeds(graph, seed=11, scale=0.5)
        want = evaluate(graph, feeds)
        got = evaluate(optimized, feeds)
        # Output names are the execution interface and survive
        # optimization, so results compare key by key.
        assert set(got) == set(want)
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value,
                                       rtol=1e-3, atol=1e-4)

    @given(random_graphs(identities=True))
    @settings(max_examples=20, deadline=None)
    def test_optimize_never_grows(self, graph):
        optimized, _ = optimize(graph)
        assert len(optimized) <= len(graph)

    @given(random_graphs(identities=True))
    @settings(max_examples=30, deadline=None)
    def test_optimize_is_idempotent(self, graph):
        optimized, _ = optimize(graph)
        SIMPLIFY_MEMO.clear()  # sweep again rather than hit the memo
        again, report = optimize(optimized)
        assert report.total_changes == 0
        assert again is optimized


class TestInterfaceNames:
    """Optimization must not rename the execution interface: feeds and
    results are keyed by parameter/output names, and the graph
    fingerprint (hence the compile cache) hashes them."""

    def test_cse_keeps_late_output_name(self):
        # Five duplicate tanh chains; the *last* duplicate is the
        # output.  CSE keeps the output node but the rebuild used to
        # renumber it down (tanh.4 -> tanh), silently changing the
        # result key.
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        last = None
        for _ in range(5):
            last = b.tanh(x)
        b.output(last)
        graph = b.build()
        assert graph.outputs[0].name == "tanh.4"
        optimized, _ = optimize(graph)
        assert [n.name for n in optimized.outputs] == ["tanh.4"]
        feeds = random_feeds(graph, seed=3)
        assert set(evaluate(optimized, feeds)) == {"tanh.4"}

    def test_multiple_outputs_keep_distinct_names(self):
        # Sorted-by-name pairing of results must stay stable even when
        # dead duplicates between the outputs disappear.
        b = GraphBuilder()
        x0 = b.parameter("x0", (4,))
        x1 = b.parameter("x1", (4,))
        for _ in range(9):
            b.tanh(x0)  # dead duplicates push the suffix to .9
        b.output(b.tanh(x0))
        b.output(b.tanh(x1))
        graph = b.build()
        names = [n.name for n in graph.outputs]
        assert names == ["tanh.9", "tanh.10"]
        optimized, _ = optimize(graph)
        assert [n.name for n in optimized.outputs] == names
        feeds = random_feeds(graph, seed=4)
        want = evaluate(graph, feeds)
        got = evaluate(optimized, feeds)
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value, rtol=1e-6)

    def test_dotted_parameter_name_survives(self):
        # The rebuild names clones from the stem before the first dot;
        # a parameter named like "w.1" must not collapse to "w".
        b = GraphBuilder()
        w = b.parameter("w.1", (4,))
        b.tanh(w)  # dead, forces a DCE rebuild
        b.output(b.add(b.tanh(w), b.tanh(w)))
        graph = b.build()
        optimized, _ = optimize(graph)
        assert "w.1" in {n.name for n in optimized.parameters}
        feeds = {"w.1": np.ones(4, dtype=np.float32)}
        evaluate(optimized, feeds)  # feed keys still resolve

    def test_squatter_clone_is_evicted(self):
        # A surviving non-output clone can land on the output's
        # original name; it must be moved aside, not the output.
        b = GraphBuilder()
        x = b.parameter("x", (8,))
        kept = b.tanh(b.exp(x))        # tanh
        b.tanh(x)                      # tanh.1, dead
        out = b.tanh(b.abs(kept))      # tanh.2 -> clone would be tanh.1
        b.output(out)
        b.output(kept)
        graph = b.build()
        assert out.name == "tanh.2"
        optimized, _ = optimize(graph)
        assert [n.name for n in optimized.outputs] == ["tanh.2", "tanh"]
        assert len({n.name for n in optimized.nodes}) == len(
            optimized.nodes)
