"""The simplification fixpoint runs once per graph.

``repro.ir.passes.optimize`` is memoized by graph fingerprint, shared by
every compiler's ``compile_optimized``, and builds no copy of a graph it
does not rewrite.
"""

import re
import threading

import numpy as np
import pytest

from repro.cli import COMPILERS, main
from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph
from repro.ir.ops import OpKind
from repro.ir.passes import SIMPLIFY_MEMO, optimize
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.plan import module_pricing_signature
from repro.workloads import build


pytestmark = pytest.mark.usefixtures("fresh_caches")


def _capture(module) -> dict:
    return {
        "pricing_signature": module_pricing_signature(module),
        "steps": [f"{type(s).__name__}:{s.name}" for s in module.steps],
    }


class TestOncePerGraph:
    def test_all_compilers_share_one_fixpoint(self):
        graph = build("CRNN")
        shared = {name: _capture(cls().compile_optimized(graph, V100))
                  for name, cls in COMPILERS.items()}
        assert len(COMPILERS) == 8
        assert (SIMPLIFY_MEMO.stats.misses, SIMPLIFY_MEMO.stats.hits) \
            == (1, 7)
        for name, cls in COMPILERS.items():
            SIMPLIFY_MEMO.clear()
            fresh = _capture(cls().compile_optimized(graph, V100))
            assert SIMPLIFY_MEMO.stats.hits == 0
            assert shared[name] == fresh, name

    def test_equal_graph_objects_hit(self):
        first, second = build("CRNN"), build("CRNN")
        simplified, report = optimize(first)
        again, reused = optimize(second)
        assert again is simplified
        assert not report.reused and reused.reused
        assert (reused.changes, reused.iterations) \
            == (report.changes, report.iterations)
        assert reused.changes is not report.changes
        assert (SIMPLIFY_MEMO.stats.misses, SIMPLIFY_MEMO.stats.hits) \
            == (1, 1)

    def test_grown_graph_is_not_served(self):
        graph = build("CRNN")
        simplified, report = optimize(graph)
        size = len(simplified)
        param = simplified.parameters[0]
        simplified.add(OpKind.TANH, [param], param.shape)
        again, second = optimize(graph)
        assert again is not simplified
        assert len(again) == size
        assert not second.reused
        assert second.changes == report.changes
        assert SIMPLIFY_MEMO.stats.hits == 0

    def test_parallel_service_matches_serial(self):
        graph = build("CRNN")
        compilers = (XLACompiler(), AStitchCompiler())
        serial = []
        for compiler in compilers:
            SIMPLIFY_MEMO.clear()
            serial.append(_capture(compiler.compile_optimized(graph, V100)))
        SIMPLIFY_MEMO.clear()
        service = CompileService(cache=CompileCache())
        parallel = [None] * len(compilers)

        def compile_on_thread(index):
            module = service.compile(graph, compilers[index], V100,
                                     optimize=True)
            parallel[index] = _capture(module)

        threads = [threading.Thread(target=compile_on_thread, args=(i,))
                   for i in range(len(compilers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert parallel == serial

    def test_pass_report_says_reused(self):
        graph = build("CRNN")
        runs = [XLACompiler().run_pipeline(graph, V100, optimize=True)
                for _ in range(2)]
        first, second = (run.reports[0] for run in runs)
        assert first.pass_name == "simplify-fixpoint"
        assert (first.detail.pop("reused"), second.detail.pop("reused")) \
            == (False, True)
        assert first.detail == second.detail
        assert (first.nodes_before, first.nodes_after) \
            == (second.nodes_before, second.nodes_after)

    def test_cache_stats_lists_simplify_tier(self, capsys):
        graph = build("CRNN")
        optimize(graph)
        optimize(graph)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^simplify +1 +1 +0 +1 ", out, re.MULTILINE), out


class TestNoFireNoCopy:
    @staticmethod
    def _settled_graph() -> Graph:
        b = GraphBuilder()
        x = b.parameter("x", (4, 8))
        y = b.parameter("y", (4, 8))
        b.output(b.reduce_sum(b.tanh(b.add(x, y)), axes=(1,)))
        b.output(b.multiply(x, b.constant(np.full((4, 8), 2.0,
                                                  dtype=np.float32),
                                          (4, 8))))
        return b.build()

    def test_pass_that_fires_nothing_builds_nothing(self, monkeypatch):
        graph = self._settled_graph()
        built = []
        for method in ("add", "_append"):
            real = getattr(Graph, method)

            def counting(self, *args, _real=real, _name=method, **kwargs):
                built.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Graph, method, counting)
        result, report = optimize(graph)
        assert result is graph
        assert report.total_changes == 0
        assert built == []
