"""Tests for the static module verifier."""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.codegen.builder import make_kernel
from repro.codegen import mapping as mappings
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.compilers import (
    AnsorCompiler,
    CudaGraphCompiler,
    TensorFlowCompiler,
    TVMCompiler,
    XLACompiler,
)
from repro.compilers.base import CompiledModule
from repro.compilers.verify import (
    ModuleVerificationError,
    collect_violations,
    verify_module,
)
from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.spec import V100
from repro.workloads import build, micro

from tests.test_property_compilers import random_graphs

ALL_COMPILERS = [TensorFlowCompiler(), XLACompiler(), TVMCompiler(),
                 AnsorCompiler(), CudaGraphCompiler(), AStitchCompiler(),
                 AStitchCompiler(AStitchConfig.no_dominant_merging()),
                 AStitchCompiler(AStitchConfig.regional_only())]


class TestCleanModules:
    @pytest.mark.parametrize("compiler", ALL_COMPILERS,
                             ids=lambda c: c.name)
    def test_micro_graphs_verify(self, compiler):
        for graph in (micro.fig7_subgraph(256, 128),
                      micro.softmax_graph(128, 64),
                      micro.column_reduce_chain(64, 4)):
            verify_module(compiler.compile(graph))

    @pytest.mark.parametrize("name", ["CRNN", "ASR", "BERT", "DIEN"])
    def test_workloads_verify_under_astitch(self, name):
        verify_module(AStitchCompiler().compile(build(name)))

    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_verify(self, graph):
        for compiler in (XLACompiler(), AStitchCompiler()):
            verify_module(compiler.compile(graph))


class TestViolationsDetected:
    def _clean_module(self):
        graph = micro.softmax_graph(64, 32)
        return AStitchCompiler().compile(graph)

    def test_missing_kernel_detected(self):
        module = self._clean_module()
        broken = CompiledModule(module.graph, module.steps[:-1],
                                module.compiler_name)
        errors = collect_violations(broken)
        assert any("never stored" in e or "in no kernel" in e
                   for e in errors)

    def test_double_store_detected(self):
        module = self._clean_module()
        kernel = module.kernels()[0]
        duplicate = dataclasses.replace(kernel)
        broken = CompiledModule(module.graph,
                                module.steps + [duplicate],
                                module.compiler_name)
        errors = collect_violations(broken)
        assert any("stored by both" in e for e in errors)

    def test_oversized_block_detected(self):
        module = self._clean_module()
        kernel = module.kernels()[0]
        bad_mapping = ThreadMapping(MappingKind.ELEMENTWISE,
                                    kernel.mapping.grid_size, 1024)
        bad = dataclasses.replace(kernel, mapping=bad_mapping,
                                  smem_per_block=10 ** 6)
        steps = [bad if s is kernel else s for s in module.steps]
        errors = collect_violations(
            CompiledModule(module.graph, steps, "broken"))
        assert any("shared memory" in e for e in errors)

    def test_barrier_over_wave_detected(self):
        graph = micro.softmax_graph(64, 32)
        module = AStitchCompiler().compile(graph)
        kernel = module.kernels()[0]
        bad_mapping = ThreadMapping(MappingKind.ELEMENTWISE, 10_000, 1024)
        bad = dataclasses.replace(kernel, mapping=bad_mapping,
                                  num_global_barriers=2)
        steps = [bad if s is kernel else s for s in module.steps]
        errors = collect_violations(
            CompiledModule(module.graph, steps, "broken"))
        assert any("exceeds one wave" in e for e in errors)

    def test_undeclared_read_detected(self):
        graph = micro.softmax_graph(64, 32)
        mem_nodes = list(graph.memory_intensive_nodes())
        # Second half of the graph only: reads the first half's values
        # that no step stores.
        tail = mem_nodes[len(mem_nodes) // 2:]
        kernel = make_kernel(graph, tail,
                             mappings.naive_elementwise(64 * 32, V100))
        errors = collect_violations(
            CompiledModule(graph, [kernel], "broken"))
        assert any("before any store" in e for e in errors)

    def test_verify_raises_with_report(self):
        module = self._clean_module()
        broken = CompiledModule(module.graph, [], "broken")
        with pytest.raises(ModuleVerificationError) as excinfo:
            verify_module(broken)
        assert "verification failed" in str(excinfo.value)
        assert len(excinfo.value.errors) > 1


class TestAblationsAcrossWorkloads:
    @pytest.mark.parametrize("name", ["CRNN", "ASR", "BERT", "DIEN"])
    @pytest.mark.parametrize("config", [
        AStitchConfig.adaptive_mapping_only(),
        AStitchConfig.no_dominant_merging(),
        AStitchConfig.regional_only(),
        AStitchConfig(remote_stitching=False),
    ], ids=["atm", "hdm", "regional", "no-remote"])
    def test_every_ablation_verifies(self, name, config):
        module = AStitchCompiler(config).compile(build(name))
        verify_module(module)
