"""Round-trip tests for the graph text parser."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir.interpreter import evaluate, random_feeds
from repro.ir.parser import GraphParseError, parse_graph
from repro.ir.printer import format_graph
from repro.workloads import micro

from tests.test_property_compilers import random_graphs


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [
        lambda: micro.softmax_graph(16, 8),
        lambda: micro.fig7_subgraph(8, 4),
        lambda: micro.power_broadcast_add(4, 8),
        lambda: micro.row_reduce(16, 4),
        lambda: micro.column_reduce_chain(8, 2),
    ])
    def test_text_fixpoint(self, factory):
        graph = factory()
        text = format_graph(graph)
        reparsed = parse_graph(text)
        assert format_graph(reparsed) == text

    def test_numerics_preserved(self):
        graph = micro.fig7_subgraph(8, 4)
        reparsed = parse_graph(format_graph(graph))
        feeds = random_feeds(graph, seed=17)
        want = evaluate(graph, feeds)
        got = evaluate(reparsed, feeds)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-6)

    def test_outputs_preserved(self):
        graph = micro.softmax_graph(8, 4)
        reparsed = parse_graph(format_graph(graph))
        assert [n.name for n in reparsed.outputs] == \
            [n.name for n in graph.outputs]

    # Array constants are not round-trippable text, by design.
    @given(random_graphs(twin_constants=False))
    @settings(max_examples=25, deadline=None)
    def test_random_graph_roundtrip(self, graph):
        text = format_graph(graph)
        reparsed = parse_graph(text)
        assert format_graph(reparsed) == text
        feeds = random_feeds(graph, seed=3, scale=0.3)
        want = evaluate(graph, feeds)
        got = evaluate(reparsed, feeds)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-4,
                                       atol=1e-5)


class TestErrors:
    def test_empty(self):
        with pytest.raises(GraphParseError):
            parse_graph("")

    def test_missing_brace(self):
        with pytest.raises(GraphParseError):
            parse_graph("g {\n  %x = f32<4> parameter()")

    def test_bad_node_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("g {\n  what even is this\n}")

    def test_unknown_operator(self):
        with pytest.raises(GraphParseError):
            parse_graph("g {\n  %x = f32<4> frobnicate()\n}")

    def test_undefined_operand(self):
        with pytest.raises(GraphParseError):
            parse_graph("g {\n  %y = f32<4> tanh(%x)\n}")

    def test_duplicate_name(self):
        text = ("g {\n"
                "  %x = f32<4> parameter()\n"
                "  %x = f32<4> parameter()\n"
                "}")
        with pytest.raises(GraphParseError):
            parse_graph(text)

    def test_shape_validation_applied(self):
        text = ("g {\n"
                "  %x = f32<4,8> parameter()\n"
                "  %r = f32<5> reduce(%x) axes=(1,) kind=sum\n"
                "}")
        with pytest.raises(ValueError):
            parse_graph(text)
