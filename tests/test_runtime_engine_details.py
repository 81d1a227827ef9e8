"""Deeper engine tests: launch hiding, graph replay, step pricing."""

import pytest

from repro.codegen.kernel import Kernel, MemcpyCall
from repro.compilers import (
    CudaGraphCompiler,
    FusionStitchingCompiler,
    TensorFlowCompiler,
    XLACompiler,
)
from repro.core import AStitchCompiler
from repro.runtime import Engine
from repro.runtime.engine import (
    COMPILED_DISPATCH_LATENCY,
    LAUNCH_FLOOR,
    _visible_launch_overhead,
)
from repro.gpu.spec import V100
from repro.ir.builder import GraphBuilder
from repro.workloads import micro


class TestLaunchHiding:
    def test_long_kernel_hides_launch(self):
        assert _visible_launch_overhead(10e-6, 50e-6) == LAUNCH_FLOOR

    def test_short_kernel_exposes_launch(self):
        assert _visible_launch_overhead(10e-6, 2e-6) \
            == pytest.approx(8e-6)

    def test_zero_duration_full_launch(self):
        assert _visible_launch_overhead(10e-6, 0.0) \
            == pytest.approx(10e-6)

    def test_big_kernel_module_is_launch_light(self):
        # A module of few large kernels pays near-floor overhead/kernel.
        graph = micro.softmax_graph(100_000, 512)
        module = AStitchCompiler().compile(graph)
        profile = Engine().run(module)
        mem_steps = [s for s in profile.steps if s.category == "mem"]
        for step in mem_steps:
            if step.duration > V100.kernel_launch_latency:
                assert step.overhead <= LAUNCH_FLOOR \
                    + COMPILED_DISPATCH_LATENCY + 1e-12


class TestGraphReplay:
    def test_replay_overhead_below_stream_launch(self):
        graph = micro.fig7_subgraph(64, 32)
        engine = Engine()
        xla = engine.run(XLACompiler().compile(graph))
        replay = engine.run(CudaGraphCompiler().compile(graph))
        xla_overhead = sum(s.overhead for s in xla.steps
                           if s.category == "mem")
        replay_overhead = sum(s.overhead for s in replay.steps
                              if s.category == "mem")
        assert replay_overhead < xla_overhead

    def test_framework_mode_highest_dispatch(self):
        graph = micro.fig7_subgraph(64, 32)
        engine = Engine()
        tf = engine.dispatch_overhead(TensorFlowCompiler().compile(graph))
        compiled = engine.dispatch_overhead(XLACompiler().compile(graph))
        assert tf == V100.framework_op_latency
        assert compiled == COMPILED_DISPATCH_LATENCY


class TestStepPricing:
    def test_memcpy_cost_scales_with_bytes(self):
        engine = Engine()
        small = engine.price_step(MemcpyCall(1024), 10e-6, 1e-6)
        big = engine.price_step(MemcpyCall(512 * 1024 * 1024), 10e-6,
                                1e-6)
        assert big.overhead > small.overhead
        assert small.overhead >= V100.memcpy_latency

    def test_unknown_step_type_rejected(self):
        engine = Engine()
        with pytest.raises(TypeError):
            engine.price_step(object(), 10e-6, 1e-6)

    def test_price_step_matches_run(self):
        b = GraphBuilder("dot_relu")
        b.output(b.relu(b.dot(b.parameter("x", (64, 32)),
                              b.parameter("w", (32, 48)))))
        module = XLACompiler().compile(b.build())
        engine = Engine()
        profile = engine.run(module)
        launch, dispatch = engine.launch_costs(module)
        checked = 0
        for step, priced in zip(module.steps, profile.steps):
            if isinstance(step, Kernel):
                continue
            again = engine.price_step(step, launch, dispatch)
            assert again.duration == priced.duration
            assert again.overhead == priced.overhead
            checked += 1
        assert checked

    def test_variant_time_matches_plan_steps(self):
        # The launch-tuning comparator prices a lowering through the
        # same per-step accounting as the plan: each kernel's duration
        # and overhead, plus the memcpys the kernels need themselves.
        from repro.compilers.base import kernel_memcpys
        module = AStitchCompiler().compile(micro.row_reduce(64, 30_000))
        engine = Engine()
        kernels = module.kernels()
        memcpys = kernel_memcpys(kernels)
        assert memcpys  # the splitting mapping's atomics need a memset
        plan = engine.build_plan(module)
        launch, dispatch = engine.launch_costs(module)
        want = sum(step.duration + step.overhead for step in plan.steps
                   if step.category == "mem")
        want += sum(engine.price_step(call, launch, dispatch).overhead
                    for call in memcpys)
        assert engine.variant_time(kernels) == pytest.approx(want,
                                                             rel=1e-12)

    def test_kernels_priced_only_in_batch(self):
        module = XLACompiler().compile(micro.softmax_graph(128, 64))
        engine = Engine()
        with pytest.raises(TypeError):
            engine.price_step(module.kernels()[0], 10e-6, 1e-6)


class TestCompilerNamePlumbing:
    def test_module_names_propagate_to_profiles(self):
        graph = micro.softmax_graph(64, 32)
        for compiler in (XLACompiler(), AStitchCompiler(),
                         FusionStitchingCompiler(),
                         CudaGraphCompiler()):
            module = compiler.compile(graph)
            profile = Engine().run(module)
            assert profile.module_name == compiler.name
            assert profile.graph_name == graph.name
