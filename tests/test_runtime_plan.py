"""Tests for the execution-plan layer (plan cache, keys, determinism)."""

import dataclasses
import pickle

import pytest

from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel
from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.costmodel import KernelCostModel
from repro.gpu.counters import aggregate
from repro.gpu.spec import T4, V100
from repro.ir.builder import GraphBuilder
from repro.runtime import engine as engine_mod
from repro.runtime.engine import Engine, EngineConfig
from repro.runtime.plan import (
    ExecutionPlan,
    PlanCache,
    PlanKey,
    default_plan_cache,
    module_pricing_signature,
    plan_key,
    set_default_plan_cache,
)
from repro.store import key_digest
from repro.workloads import layers, micro


def _module(graph=None, compiler=None, spec=V100):
    graph = graph if graph is not None else micro.softmax_graph(64, 32)
    return (compiler or AStitchCompiler()).compile(graph, spec)


def _reference_counters(module, spec=V100):
    """Every kernel's counters from the scalar reference, priced on a
    fresh cost model (no memo shared with the plan under test)."""
    reference = KernelCostModel(spec)
    return [reference._price_uncached(kernel_cost_inputs(step))
            for step in module.steps if isinstance(step, Kernel)]


class TestExecutionPlan:
    @pytest.mark.parametrize("compiler", [AStitchCompiler(), XLACompiler()],
                             ids=lambda c: c.name)
    def test_kernel_counters_match_fresh_reference(self, compiler):
        module = _module(micro.fig7_subgraph(128, 64), compiler=compiler)
        plan = Engine(plan_cache=PlanCache()).plan(module)
        mem_steps = [s for s in plan.steps if s.category == "mem"]
        reference = _reference_counters(module)
        assert mem_steps
        assert [s.counters for s in mem_steps] == reference
        assert [s.duration for s in mem_steps] \
            == [c.duration for c in reference]
        assert [s.name for s in plan.steps] \
            == [step.name for step in module.steps]

    def test_totals_equal_sums_over_steps(self):
        b = GraphBuilder("dot_softmax")
        x = b.parameter("x", (64, 32))
        w = b.parameter("w", (32, 48))
        b.output(layers.softmax(b, b.relu(b.dot(x, w))))
        module = _module(b.build(), compiler=XLACompiler())
        plan = Engine(plan_cache=PlanCache()).plan(module)
        steps = plan.steps
        by = {c: [s for s in steps if s.category == c]
              for c in ("mem", "compute", "memcpy")}
        assert by["compute"] and by["mem"]
        assert plan.mem_time == sum(s.duration for s in by["mem"])
        assert plan.compute_time == sum(s.duration for s in by["compute"])
        assert plan.overhead_time == sum(s.overhead for s in steps)
        assert plan.total_time == (plan.mem_time + plan.compute_time
                                   + plan.overhead_time)
        assert plan.mem_kernel_count == len(by["mem"])
        assert plan.compute_kernel_count == len(by["compute"])
        assert plan.memcpy_count == len(by["memcpy"])

    def test_counters_aggregate_matches(self):
        module = _module()
        plan = Engine(plan_cache=PlanCache()).plan(module)
        assert plan.mem_counters() == _reference_counters(module)
        assert (plan.aggregate_mem_counters()
                == aggregate(_reference_counters(module)))

    def test_plan_immutable(self):
        plan = Engine(plan_cache=PlanCache()).plan(_module())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.mem_time = 0.0


class TestPricingSignature:
    def test_structurally_identical_modules_share(self):
        a = _module(micro.softmax_graph(32, 16))
        b = _module(micro.softmax_graph(32, 16))
        assert module_pricing_signature(a) == module_pricing_signature(b)

    def test_compiler_strategy_differs(self):
        graph = micro.softmax_graph(32, 16)
        assert (module_pricing_signature(_module(graph))
                != module_pricing_signature(
                    _module(graph, compiler=XLACompiler())))

    def test_shape_differs(self):
        assert (module_pricing_signature(_module(micro.softmax_graph(32, 16)))
                != module_pricing_signature(
                    _module(micro.softmax_graph(32, 17))))

    def test_memoized_on_module(self):
        module = _module()
        first = module_pricing_signature(module)
        assert module.__dict__["_pricing_signature"] == first
        assert module_pricing_signature(module) is first


class TestPlanKeyInvalidation:
    def test_equal_inputs_hit(self):
        cache = PlanCache()
        module = _module()
        engine = Engine(plan_cache=cache)
        first = engine.plan(module)
        assert engine.plan(module) is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_structurally_equal_module_hits_across_objects(self):
        cache = PlanCache()
        engine = Engine(plan_cache=cache)
        first = engine.plan(_module(micro.softmax_graph(32, 16)))
        again = engine.plan(_module(micro.softmax_graph(32, 16)))
        assert again is first
        assert cache.stats.hits == 1

    def test_spec_field_change_misses(self):
        cache = PlanCache()
        module = _module()
        Engine(plan_cache=cache).plan(module)
        slower = dataclasses.replace(V100, dram_bandwidth=V100.dram_bandwidth / 2)
        slow_module = _module(spec=slower)
        Engine(spec=slower, plan_cache=cache).plan(slow_module)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_different_device_misses(self):
        cache = PlanCache()
        Engine(plan_cache=cache).plan(_module())
        Engine(spec=T4, plan_cache=cache).plan(_module(spec=T4))
        assert cache.stats.misses == 2

    def test_engine_config_override_misses(self, monkeypatch):
        cache = PlanCache()
        module = _module()
        Engine(plan_cache=cache).plan(module)
        monkeypatch.setattr(engine_mod, "COMPILED_DISPATCH_LATENCY",
                            engine_mod.COMPILED_DISPATCH_LATENCY * 10)
        overridden = Engine(plan_cache=cache)
        plan = overridden.plan(module)
        assert cache.stats.misses == 2
        # And the re-priced plan actually reflects the new constant.
        assert plan.total_time > cache.get(
            plan_key(module, V100, EngineConfig(
                compiled_dispatch_latency=engine_mod
                .COMPILED_DISPATCH_LATENCY / 10,
                launch_floor=engine_mod.LAUNCH_FLOOR))).total_time

    def test_graph_fingerprint_change_misses(self):
        cache = PlanCache()
        engine = Engine(plan_cache=cache)
        engine.plan(_module(micro.softmax_graph(32, 16)))
        engine.plan(_module(micro.softmax_graph(64, 16)))
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_key_digest_stable_and_distinct(self):
        module = _module()
        key = plan_key(module, V100, EngineConfig.current())
        assert key_digest(key) == key_digest(plan_key(
            module, V100, EngineConfig.current()))
        other = plan_key(module, T4, EngineConfig.current())
        assert key_digest(key) != key_digest(other)


class TestPlanCache:
    def test_disk_tier_round_trip(self, tmp_path):
        module = _module()
        store = PlanCache(cache_dir=tmp_path)
        plan = Engine(plan_cache=store).plan(module)
        assert store.stats.disk_stores == 1
        assert list(tmp_path.glob("plan_*.pkl"))
        # A fresh cache (fresh process, in spirit) loads from disk.
        load = PlanCache(cache_dir=tmp_path)
        loaded = Engine(plan_cache=load).plan(module)
        assert load.stats.disk_hits == 1
        assert load.stats.misses == 0
        assert loaded.total_time == plan.total_time
        assert [s.duration for s in loaded.steps] \
            == [s.duration for s in plan.steps]

    def test_default_cache_process_wide(self, fresh_caches):
        first = default_plan_cache()
        assert Engine().plan_cache is first
        replacement = PlanCache()
        set_default_plan_cache(replacement)
        assert Engine().plan_cache is replacement


class TestPickleHygiene:
    def test_module_getstate_drops_derived_memos(self):
        module = _module()
        module.execute({p.name: __import__("numpy").zeros(p.shape.dims,
                        dtype=p.dtype.to_numpy())
                        for p in module.graph.parameters})
        module_pricing_signature(module)
        assert "_executor" in module.__dict__
        assert "_pricing_signature" in module.__dict__
        state = module.__getstate__()
        assert "_executor" not in state
        assert "_pricing_signature" not in state

    def test_kernel_getstate_drops_cost_inputs(self):
        from repro.codegen.builder import kernel_cost_inputs
        module = _module()
        kernel = module.kernels()[0]
        kernel_cost_inputs(kernel)
        assert "_cost_inputs" in kernel.__dict__
        assert "_cost_inputs" not in kernel.__getstate__()

    def test_pickled_module_reprices_identically(self):
        module = _module()
        engine = Engine(plan_cache=PlanCache())
        original = engine.plan(module)
        clone = pickle.loads(pickle.dumps(module))
        assert "_pricing_signature" not in clone.__dict__
        replanned = Engine(plan_cache=PlanCache()).plan(clone)
        assert replanned.total_time == original.total_time
