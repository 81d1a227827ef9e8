"""Tests for the deduplicating compile service."""

import dataclasses
import threading
import time

import pytest

from repro.compilers import XLACompiler
from repro.compilers.base import Compiler
from repro.compilers.verify import verify_module
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.pipeline.base import Pipeline
from repro.runtime import JitCache, Session
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService, default_service
from repro.workloads import micro


class CountingCompiler(Compiler):
    """XLA wrapper that counts compilations (optionally slowly)."""

    name = "XLA"

    def __init__(self, delay: float = 0.0):
        self.inner = XLACompiler()
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def build_pipeline(self):
        return self.inner.build_pipeline()

    def compile(self, graph, spec=V100, *, optimize=False):
        """Delegate to XLA after counting the invocation."""
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self.inner.compile(graph, spec, optimize=optimize)


class FailingCompiler(Compiler):
    """A strategy that always rejects its input (optionally slowly)."""

    name = "failing"
    calls = 0

    def __init__(self, delay: float = 0.0):
        self.delay = delay

    def build_pipeline(self):
        return Pipeline(name="failing", passes=())

    def compile(self, graph, spec=V100, *, optimize=False):
        """Raise, as e.g. TensorRT does on training graphs."""
        type(self).calls += 1
        if self.delay:
            time.sleep(self.delay)
        raise RuntimeError("rejected")


def _service():
    return CompileService(cache=CompileCache())


def _on_threads(count, call):
    """Run ``call()`` on ``count`` caller threads released together;
    returns each thread's result or raised exception."""
    start = threading.Barrier(count)
    outcomes = [None] * count

    def run(index):
        start.wait()
        try:
            outcomes[index] = call()
        except Exception as error:  # noqa: BLE001 — returned to the test
            outcomes[index] = error

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class TestCaching:
    def test_second_request_is_a_hit(self):
        service = _service()
        compiler = CountingCompiler()
        m1 = service.compile(micro.softmax_graph(8, 8), compiler)
        m2 = service.compile(micro.softmax_graph(8, 8), compiler)
        assert m1 is m2
        assert compiler.calls == 1
        assert service.cache.stats.hits == 1

    def test_inline_mode_compiles_and_caches(self):
        service = _service()
        compiler = CountingCompiler()
        graph = micro.softmax_graph(8, 8)
        assert service.compile(graph, compiler) \
            is service.compile(graph, compiler)
        assert compiler.calls == 1

    def test_key_builds_the_pipeline_once_per_identity(self, monkeypatch):
        compiler = AStitchCompiler()
        builds = []
        build = compiler.build_pipeline
        monkeypatch.setattr(compiler, "build_pipeline",
                            lambda: builds.append(1) or build())
        service, graph = _service(), micro.softmax_graph(8, 8)
        for _ in range(3):
            service.key_for(graph, compiler)
            service.key_for(graph, compiler, optimize=True)
        assert len(builds) == 2

    def test_reassigned_config_keys_the_new_pipeline(self):
        compiler = AStitchCompiler()
        service, graph = _service(), micro.softmax_graph(8, 8)
        full = service.key_for(graph, compiler)
        compiler.config = dataclasses.replace(compiler.config, tune=False)
        heuristic = service.key_for(graph, compiler)
        assert heuristic.pipeline != full.pipeline
        assert heuristic.pipeline == \
            compiler.build_pipeline().fingerprint()
        compiler.config = AStitchCompiler().config
        assert service.key_for(graph, compiler) == full

    def test_max_workers_accepts_only_zero(self):
        CompileService(cache=CompileCache(), max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            CompileService(cache=CompileCache(), max_workers=2)

    def test_distinct_keys_compile_separately(self):
        service = _service()
        compiler = CountingCompiler()
        service.compile(micro.softmax_graph(8, 8), compiler)
        service.compile(micro.softmax_graph(8, 9), compiler)
        service.compile(micro.softmax_graph(8, 8), compiler,
                        optimize=True)
        assert compiler.calls == 3

    def test_same_named_spec_variant_compiles_fresh(self):
        # Adaptive mapping reads the block ceiling (Sec 3.3): a V100
        # with 512-thread blocks must get its own module, never the one
        # compiled for the 1024-thread V100 it shares a name with.
        service = _service()
        graph = micro.softmax_graph(1024, 256)
        variant = dataclasses.replace(V100, max_threads_per_block=512)
        compiler = AStitchCompiler()
        full = service.compile(graph, compiler, V100)
        narrow = service.compile(graph, compiler, variant)
        assert service.cache.stats.misses == 2
        assert service.stats.compiled == 2
        assert narrow is not full
        verify_module(narrow, variant)
        assert max(k.mapping.block_size for k in narrow.kernels()) <= 512

    def test_failures_are_not_cached(self):
        service = _service()
        compiler = FailingCompiler()
        graph = micro.softmax_graph(8, 8)
        before = FailingCompiler.calls
        for _ in range(2):
            with pytest.raises(RuntimeError):
                service.compile(graph, compiler)
        assert FailingCompiler.calls == before + 2
        assert len(service.cache) == 0
        assert service.stats.failed == 2


class TestSingleFlight:
    def test_concurrent_requests_compile_once(self):
        service = _service()
        compiler = CountingCompiler(delay=0.15)
        graph = micro.softmax_graph(32, 32)
        modules = _on_threads(8, lambda: service.compile(graph, compiler))
        assert len({id(module) for module in modules}) == 1
        assert compiler.calls == 1
        assert service.stats.coalesced == 7

    def test_concurrent_failure_reaches_every_caller(self):
        service = _service()
        compiler = FailingCompiler(delay=0.15)
        graph = micro.softmax_graph(32, 32)
        before = FailingCompiler.calls
        outcomes = _on_threads(4, lambda: service.compile(graph, compiler))
        assert all(isinstance(outcome, RuntimeError)
                   for outcome in outcomes)
        assert FailingCompiler.calls == before + 1
        assert service.stats.failed == 1
        assert len(service.cache) == 0


class TestWarmup:
    def test_warmup_populates_cache(self):
        service = _service()
        compiler = CountingCompiler()
        graphs = [micro.softmax_graph(8, 8), micro.row_reduce(8, 8)]
        report = service.warmup(graphs, [compiler])
        assert report.pairs == 2
        assert report.compiled == 2
        assert report.served_from_cache == 0
        assert not report.failures
        again = service.warmup(graphs, [compiler])
        assert again.compiled == 0
        assert again.served_from_cache == 2
        assert compiler.calls == 2

    def test_warmup_records_rejections(self):
        service = _service()
        report = service.warmup([micro.softmax_graph(8, 8)],
                                [FailingCompiler()])
        assert report.pairs == 1
        assert report.compiled == 0
        assert len(report.failures) == 1
        graph_name, compiler_name, message = report.failures[0]
        assert compiler_name == "failing"
        assert "rejected" in message

    def test_warmup_compiles_on_the_caller_thread(self, fresh_caches):
        seen = []

        class Recording(CountingCompiler):
            def compile(self, graph, spec=V100, *, optimize=False):
                """Record the compiling thread, then compile."""
                seen.append(threading.current_thread())
                return super().compile(graph, spec, optimize=optimize)

        threads_before = threading.active_count()
        report = default_service().warmup(
            [micro.softmax_graph(8, 8), micro.row_reduce(8, 8)],
            [Recording()])
        assert report.compiled == 2
        assert seen == [threading.current_thread()] * 2
        assert threading.active_count() == threads_before


class TestFrontEnds:
    """Session and JitCache ride the same service/cache."""

    def test_sessions_share_compilations(self):
        service = _service()
        compiler = CountingCompiler()
        s1 = Session(compiler=compiler, optimize_graphs=False,
                     service=service)
        s2 = Session(compiler=compiler, optimize_graphs=False,
                     service=service)
        g1, g2 = micro.softmax_graph(8, 8), micro.softmax_graph(8, 8)
        assert s1.module(g1) is s2.module(g2)
        assert compiler.calls == 1

    def test_session_unoptimized_keeps_graph_identity(self):
        # With a private cold cache, the unoptimized path compiles the
        # exact graph object handed in.
        graph = micro.softmax_graph(16, 8)
        session = Session(optimize_graphs=False, service=_service())
        assert session.module(graph).graph is graph

    def test_session_fingerprint_keying_defeats_id_reuse(self):
        # id(graph) of a collected graph can be recycled by a new
        # graph; fingerprint keys cannot alias.  Simulate the hazard
        # directly: two structurally different graphs must never share
        # an entry, and the cache entry pins its graph against GC.
        service = _service()
        session = Session(compiler=CountingCompiler(),
                          optimize_graphs=False, service=service)
        m1 = session.module(micro.softmax_graph(8, 8))
        m2 = session.module(micro.row_reduce(8, 8))
        assert m1 is not m2
        held = {id(g) for g, _ in session._modules.values()}
        assert len(held) == 2

    def test_jit_cache_factory_qualname_keying(self):
        # Two factories that share a bare __name__ must not alias.
        def build(rows=8, cols=8):
            return micro.softmax_graph(rows, cols)

        def build2(rows=8, cols=8):
            return micro.row_reduce(rows, cols)

        build2.__name__ = "build"
        build2.__qualname__ = build.__qualname__
        build2.__module__ = "somewhere.else"

        cache = JitCache(AStitchCompiler(), policy="exact",
                         service=_service())
        m1 = cache.get(build, {"rows": 8, "cols": 8})
        m2 = cache.get(build2, {"rows": 8, "cols": 8})
        assert m1 is not m2
        assert cache.stats.misses == 2

    def test_jit_cache_sibling_closures_do_not_alias(self):
        # Two closures of one enclosing function share their module and
        # qualified name but build different graphs.
        def factory_for(build):
            def factory(rows=8, cols=8):
                return build(rows, cols)
            return factory

        softmax = factory_for(micro.softmax_graph)
        row_reduce = factory_for(micro.row_reduce)
        assert softmax.__qualname__ == row_reduce.__qualname__
        cache = JitCache(AStitchCompiler(), policy="exact",
                         service=_service())
        dims = {"rows": 8, "cols": 8}
        m1 = cache.get(softmax, dims)
        m2 = cache.get(row_reduce, dims)
        assert m1 is not m2
        assert m2.graph.name == micro.row_reduce(8, 8).name
        assert cache.stats.misses == 2
        assert cache.get(row_reduce, dims) is m2

    def test_jit_caches_share_service_compilations(self):
        service = _service()
        compiler = CountingCompiler()
        c1 = JitCache(compiler, policy="exact", service=service)
        c2 = JitCache(compiler, policy="exact", service=service)
        dims = {"rows": 16, "cols": 16}
        assert (c1.get(micro.softmax_graph_factory, dims)
                is c2.get(micro.softmax_graph_factory, dims))
        assert compiler.calls == 1
        # Each JitCache still accounts its own (modeled) stats.
        assert c1.stats.misses == 1 and c2.stats.misses == 1
