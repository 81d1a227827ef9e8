"""Tests for the content-addressed compilation cache."""

import dataclasses
import pickle
import sys
import threading

import numpy as np

from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.core.config import AStitchConfig
from repro.gpu.spec import T4, V100
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.interpreter import random_feeds
from repro.runtime import Engine
from repro.runtime.compile_cache import CacheKey, CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.plan import PlanCache, module_pricing_signature
from repro.store import key_digest
from repro.workloads import micro


def _key(graph, compiler=None, spec=V100, optimize=False):
    compiler = compiler or AStitchCompiler()
    return CacheKey(pipeline=compiler.pipeline_fingerprint(optimize),
                    graph=graph_fingerprint(graph), spec=spec)


def _compile(graph, compiler=None, spec=V100):
    return (compiler or AStitchCompiler()).compile(graph, spec)


def _tanh_chain(length, width=64):
    """A ``length``-deep chain of elementwise ops: the deepest operand
    nesting a module can carry into pickle."""
    b = GraphBuilder(f"tanh_chain_{length}_{width}")
    node = b.parameter("x", (8, width))
    for _ in range(length):
        node = b.tanh(node)
    b.output(node)
    return b.build()


class TestCompilerFingerprint:
    """The pipeline fingerprint is the compiler's identity in keys."""

    def test_distinct_strategies_differ(self):
        assert (AStitchCompiler().pipeline_fingerprint()
                != XLACompiler().pipeline_fingerprint())

    def test_config_is_part_of_identity(self):
        full = AStitchCompiler()
        ablated = AStitchCompiler(AStitchConfig.adaptive_mapping_only())
        assert (full.pipeline_fingerprint()
                != ablated.pipeline_fingerprint())

    def test_same_strategy_same_fingerprint(self):
        assert (AStitchCompiler().pipeline_fingerprint()
                == AStitchCompiler().pipeline_fingerprint())


class TestCacheKey:
    def test_every_field_distinguishes(self):
        graph = micro.softmax_graph(8, 8)
        base = _key(graph)
        assert base != _key(graph, compiler=XLACompiler())
        assert base != _key(micro.softmax_graph(8, 9))
        assert base != _key(graph, spec=T4)
        assert base != _key(graph, optimize=True)
        # A variant that keeps the device's name is another device.
        assert base != _key(graph, spec=dataclasses.replace(
            V100, max_threads_per_block=512))

    def test_digest_stable_and_distinct(self):
        graph = micro.softmax_graph(8, 8)
        assert key_digest(_key(graph)) == key_digest(_key(graph))
        assert key_digest(_key(graph)) != key_digest(_key(graph, spec=T4))


class TestPersistentTier:
    def test_disk_served_module_is_equivalent(self, tmp_path):
        """The acceptance bar: a persisted module prices and computes
        exactly like a fresh compilation."""
        graph = micro.fig7_subgraph(32, 16)
        key = _key(graph)
        CompileCache(cache_dir=tmp_path).put(key, _compile(graph))
        served = CompileCache(cache_dir=tmp_path).get(key)
        fresh = _compile(micro.fig7_subgraph(32, 16))
        engine = Engine(V100)
        assert engine.run(served) == engine.run(fresh)
        feeds = random_feeds(graph, seed=13)
        got, want = served.execute(feeds), fresh.execute(feeds)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_deep_chain_persists_at_default_recursion_limit(
            self, tmp_path, monkeypatch):
        """Pickling a 10k-node module needs no process-wide recursion
        limit change (the graph pickles before the steps, in topological
        order, so later node references are memo hits)."""
        graph = _tanh_chain(10_000)
        compiler = XLACompiler()
        module = compiler.compile(graph, V100)
        key = _key(graph, compiler=compiler)
        limit = sys.getrecursionlimit()

        def forbidden(_limit):
            raise AssertionError("the recursion limit is process-wide")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        cache = CompileCache(cache_dir=tmp_path)
        cache.put(key, module)
        assert cache.stats.disk_stores == 1
        served = CompileCache(cache_dir=tmp_path).get(key)
        assert served is not None and served is not module
        assert sys.getrecursionlimit() == limit
        # Priced independently: each plan comes from its own cache.
        assert (Engine(V100, plan_cache=PlanCache()).run(served)
                == Engine(V100, plan_cache=PlanCache()).run(module))
        assert (module_pricing_signature(served)
                == module_pricing_signature(module))


class TestConcurrentWrites:
    def test_threaded_writers_all_land_on_disk(self, tmp_path):
        """Caller threads compiling deep modules through one service —
        beside threads each writing the same key through its own store —
        leave only whole entries that a fresh store serves from disk.

        Each writer gets its own copy of the shared module, as separate
        processes would, and the switch interval keeps its default: on
        CPython 3.11, threads pickling one shared object graph under
        ``sys.setswitchinterval(1e-5)`` have crashed the interpreter
        later in the run, whatever store wrote the bytes.  File I/O
        releases the interpreter lock, so writes interleave anyway."""
        compiler = XLACompiler()
        graphs = [_tanh_chain(1_000 + 100 * i) for i in range(6)]
        shared_graph = _tanh_chain(5_000, width=32)
        shared_module = compiler.compile(shared_graph, V100)
        service = CompileService(cache=CompileCache(cache_dir=tmp_path))
        shared_key = service.key_for(shared_graph, compiler)
        writers = [CompileCache(cache_dir=tmp_path) for _ in range(16)]
        copies = [pickle.loads(pickle.dumps(shared_module))
                  for _ in writers]
        calls = ([(lambda g=g: service.compile(g, compiler)) for g in graphs]
                 + [(lambda w=w, m=copy: w.put(shared_key, m))
                    for w, copy in zip(writers, copies)])
        threads = [threading.Thread(target=call) for call in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert service.cache.stats.disk_stores == len(graphs)
        assert [w.stats.disk_stores for w in writers] == [1] * len(writers)
        assert not list(tmp_path.glob("*.tmp*"))
        fresh = CompileCache(cache_dir=tmp_path)
        keys = [service.key_for(g, compiler) for g in graphs] + [shared_key]
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.stats.disk_hits == len(keys)
        assert fresh.stats.misses == 0
