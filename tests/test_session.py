"""Tests for the Session façade and timeline trace export."""

import numpy as np
import pytest

from repro.compilers import (AnsorCompiler, CudaGraphCompiler,
                             FusionStitchingCompiler, TensorFlowCompiler,
                             TensorRTCompiler, TVMCompiler, XLACompiler)
from repro.core import AStitchCompiler
from repro.gpu.spec import T4
from repro.ir.interpreter import evaluate, random_feeds
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.plan import PlanCache
from repro.runtime.session import Session
from repro.runtime.timeline import schedule
from repro.runtime.trace import timeline_to_chrome_trace
from repro.workloads import micro, registry


class TestSession:
    def test_run_matches_interpreter(self):
        graph = micro.fig7_subgraph(32, 16)
        session = Session()
        feeds = random_feeds(graph, seed=41)
        got = session.run(graph, feeds)
        want = evaluate(graph, feeds)
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-4,
                                       atol=1e-5)

    def test_compiles_once(self):
        graph = micro.softmax_graph(16, 8)
        session = Session()
        feeds = random_feeds(graph, seed=42)
        m1 = session.module(graph)
        session.run(graph, feeds)
        session.run(graph, feeds)
        assert session.module(graph) is m1
        assert session.iterations == 2

    def test_profile_cached(self):
        graph = micro.softmax_graph(16, 8)
        session = Session()
        assert session.profile(graph) is session.profile(graph)
        assert session.profile(graph).total_time > 0

    def test_compile_seconds_accumulate(self):
        session = Session()
        session.module(micro.softmax_graph(16, 8))
        first = session.compile_seconds
        session.module(micro.fig7_subgraph(16, 8))
        assert session.compile_seconds > first

    def test_optimization_can_be_disabled(self):
        # A cold, isolated cache: with the process-wide one, a
        # structurally identical graph compiled earlier in the suite
        # may legitimately serve this entry.
        graph = micro.softmax_graph(16, 8)
        plain = Session(optimize_graphs=False,
                        service=CompileService(cache=CompileCache()))
        assert plain.module(graph).graph is graph

    def test_alternate_compiler_and_device(self):
        graph = micro.softmax_graph(16, 8)
        session = Session(compiler=XLACompiler(), spec=T4,
                          optimize_graphs=False)
        feeds = random_feeds(graph, seed=43)
        got = session.run(graph, feeds)
        want = evaluate(graph, feeds)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-4,
                                       atol=1e-5)
        assert "T4" in repr(session)

    def test_output_names_preserved_under_optimization(self):
        graph = micro.fig7_subgraph(16, 8)
        session = Session(optimize_graphs=True)
        feeds = random_feeds(graph, seed=44)
        got = session.run(graph, feeds)
        assert set(got) == {out.name for out in graph.outputs}

    @pytest.mark.parametrize("compiler_cls", [
        TensorFlowCompiler, XLACompiler, TVMCompiler, TensorRTCompiler,
        AnsorCompiler, CudaGraphCompiler, FusionStitchingCompiler,
        AStitchCompiler], ids=lambda cls: cls.__name__)
    def test_folded_constants_execute(self, compiler_cls):
        """Simplification folds non-scalar constants that kernel
        formation declares as kernel inputs; no step stores them, so the
        executor must evaluate them in place (BERT at batch 1 is the
        cheapest registry graph that has them)."""
        graph = registry.build_cached("BERT", batch=1)
        service = CompileService(cache=CompileCache())
        feeds = random_feeds(graph, seed=0)
        got = Session(compiler_cls(), service=service).run(graph, feeds)
        want = evaluate(graph, feeds)
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-4,
                                       atol=1e-5)


class TestSessionConcurrency:
    def test_many_threads_hammer_one_session(self):
        # The serving layer shares one session-like surface across
        # worker threads; run/module/profile from many threads must
        # neither crash nor duplicate cache entries.
        import concurrent.futures

        graphs = [micro.softmax_graph(16, 8),
                  micro.fig7_subgraph(16, 8),
                  micro.softmax_graph(32, 8)]
        feeds = [random_feeds(graph, seed=50 + i)
                 for i, graph in enumerate(graphs)]
        session = Session(service=CompileService(cache=CompileCache()))
        plans = session.engine.plan_cache = PlanCache()
        iterations_per_thread = 8

        def hammer(thread_id: int):
            for i in range(iterations_per_thread):
                graph = graphs[(thread_id + i) % len(graphs)]
                feed = feeds[(thread_id + i) % len(graphs)]
                session.run(graph, feed)
                session.profile(graph)
                session.module(graph)
            return session.compile_seconds

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(hammer, range(8)))
        assert all(seconds > 0 for seconds in results)
        assert session.iterations == 8 * iterations_per_thread
        # One cached module and one priced plan per distinct graph.
        assert len(session._modules) == len(graphs)
        assert plans.stats.misses == len(graphs)
        for graph in graphs:
            assert session.module(graph) is session.module(graph)
            assert session.profile(graph) is session.profile(graph)


class TestTimelineTrace:
    def test_streams_become_tracks(self):
        module = XLACompiler().compile(micro.fig7_subgraph(128, 64))
        result = schedule(module, num_streams=2, bandwidth_sharing=False)
        trace = timeline_to_chrome_trace(result)
        tids = {e["tid"] for e in trace["traceEvents"]}
        assert 0 in tids          # copy engine
        assert {1, 2} & tids      # compute streams
        assert trace["otherData"]["num_streams"] == 2

    def test_event_count(self):
        module = XLACompiler().compile(micro.softmax_graph(64, 32))
        result = schedule(module, num_streams=1)
        trace = timeline_to_chrome_trace(result)
        assert len(trace["traceEvents"]) == len(result.events)
