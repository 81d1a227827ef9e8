"""Unit tests for the extracted AStitch compilation passes.

Each paper phase (Sec 4) is now a discrete pass over the shared
``state.scratch["astitch"]`` work list; these tests run them phase by
phase on small graphs and check what each one contributes — and that
the phase-major decomposition reproduces the compiler's own kernels.
"""

from __future__ import annotations

import pytest

from repro.core import AStitchCompiler
from repro.core.config import AStitchConfig
from repro.core.passes import (
    SCRATCH_KEY,
    BlockLocalityPass,
    DominantAnalysisPass,
    LaunchTuningPass,
    MemoryPlanningPass,
    SchedulePropagationPass,
    StitchCodegenPass,
    StitchScopeIdentificationPass,
    lower_scope,
    same_launch,
    scope_works,
    stitching_passes,
)
from repro.core.schemes import StitchScheme
from repro.gpu.spec import V100
from repro.pipeline import CompileState, FusionKernelFormationPass
from repro.workloads import micro

CONFIG = AStitchConfig.heuristic_mappings()


def _state(graph=None) -> CompileState:
    return CompileState(graph=graph or micro.softmax_graph(64, 256),
                        spec=V100)


def _phases(config):
    return [StitchScopeIdentificationPass(config),
            DominantAnalysisPass(config),
            SchedulePropagationPass(config),
            BlockLocalityPass(config),
            MemoryPlanningPass(config),
            StitchCodegenPass(config)]


def _run_through(state, config, last_pass_name):
    details = {}
    for pass_obj in _phases(config):
        details[pass_obj.name] = pass_obj.run(state)
        if pass_obj.name == last_pass_name:
            break
    return details


class TestScopeIdentification:
    def test_populates_scratch(self):
        state = _state()
        detail = StitchScopeIdentificationPass(CONFIG).run(state)
        works = state.scratch[SCRATCH_KEY]
        assert detail["scopes"] == len(works) >= 1
        assert detail["nodes"] == sum(len(w.scope.nodes) for w in works)
        for work in works:
            assert work.analysis is None  # later phases' fields untouched
            assert work.launch is None

    def test_scope_works_requires_phase_one(self):
        with pytest.raises(KeyError, match="did stitch-scope-id run"):
            scope_works(_state())


class TestDominantAnalysis:
    def test_fills_analysis(self):
        state = _state()
        _run_through(state, CONFIG, "dominant-analysis")
        for work in scope_works(state):
            assert work.analysis is not None
            assert len(work.analysis.groups) >= 1
            assert work.analysis.stages >= 1


class TestSchedulePropagation:
    def test_fills_unified_launch(self):
        state = _state()
        _run_through(state, CONFIG, "schedule-propagation")
        for work in scope_works(state):
            assert work.launch is not None
            assert work.launch.grid_size >= 1
            assert 1 <= work.launch.block_size \
                <= V100.max_threads_per_block

    def test_barrier_requires_global_scheme(self):
        regional = AStitchConfig.regional_only()
        state = _state()
        _run_through(state, regional, "schedule-propagation")
        assert all(not work.needs_barrier
                   for work in scope_works(state))


class TestBlockLocality:
    def test_assigns_scheme_per_scope_node(self):
        state = _state()
        details = _run_through(state, CONFIG, "block-locality")
        for work in scope_works(state):
            assert work.schemes
            assert set(work.schemes) <= work.scope.node_set
            assert all(isinstance(s, StitchScheme)
                       for s in work.schemes.values())
        counts = details["block-locality"]
        assert sum(counts[s.name.lower()] for s in StitchScheme) \
            == sum(len(w.schemes) for w in scope_works(state))


class TestMemoryPlanning:
    def test_plans_every_scope(self):
        state = _state()
        detail = _run_through(state, CONFIG,
                              "memory-planning")["memory-planning"]
        smem = 0
        for work in scope_works(state):
            if work.per_group:
                assert work.components
                smem += sum(c.plan.smem_per_block
                            for c in work.components)
            else:
                assert work.plan is not None
                assert work.plan.smem_per_block \
                    <= V100.shared_memory_per_block
                smem += work.plan.smem_per_block
        assert detail["smem_bytes"] == smem


class TestCodegen:
    def test_emits_one_kernel_per_stitched_scope(self):
        state = _state()
        _run_through(state, CONFIG, "resource-launch")
        works = scope_works(state)
        expected = sum(len(w.components) if w.per_group else 1
                       for w in works)
        assert len(state.kernels) == expected
        names = [k.name for k in state.kernels]
        assert names == sorted(names, key=names.index)  # formation order
        for work in works:
            if not work.per_group:
                assert f"stitch_{work.scope.scope_id}" in names

    def test_phase_major_matches_compiler(self):
        """Running the phases across all scopes yields exactly the
        kernels the compiler's own pipeline produces."""
        graph = micro.softmax_graph(64, 256)
        state = _state(graph)
        _run_through(state, CONFIG, "resource-launch")
        module = AStitchCompiler(CONFIG).compile(graph, V100)
        stitched = [k for k in module.kernels()
                    if k.name.startswith("stitch_")]
        assert [k.name for k in state.kernels] \
            == [k.name for k in stitched]
        assert [(k.mapping.grid_size, k.mapping.block_size)
                for k in state.kernels] \
            == [(k.mapping.grid_size, k.mapping.block_size)
                for k in stitched]


class TestLowerScope:
    def test_composes_phases_five_to_seven(self):
        state = _state()
        _run_through(state, CONFIG, "schedule-propagation")
        work = scope_works(state)[0]
        kernels = lower_scope(state.graph, work.scope, V100,
                              work.analysis, work.launch, CONFIG)
        assert len(kernels) >= 1
        assert kernels[0].name == f"stitch_{work.scope.scope_id}"

    def test_same_launch(self):
        state = _state()
        _run_through(state, CONFIG, "schedule-propagation")
        launch = scope_works(state)[0].launch
        assert same_launch(launch, launch)


class TestTuningPass:
    def test_confirming_heuristic_changes_nothing(self):
        """When the search lands on the heuristic mapping, the launch
        and downstream kernels are untouched."""
        full = AStitchConfig.full()
        state = _state()
        for pass_obj in (StitchScopeIdentificationPass(full),
                         DominantAnalysisPass(full),
                         SchedulePropagationPass(full)):
            pass_obj.run(state)
        before = [w.launch for w in scope_works(state)]
        detail = LaunchTuningPass(full).run(state)
        after = [w.launch for w in scope_works(state)]
        changed = sum(1 for b, a in zip(before, after)
                      if not same_launch(b, a))
        assert changed == detail["tuned_scopes"]


class TestPipelineAssembly:
    def test_full_config_with_tuning(self):
        names = [p.name for p in stitching_passes(AStitchConfig.full())]
        assert names == ["stitch-scope-id", "dominant-analysis",
                         "schedule-propagation", "launch-tuning",
                         "block-locality", "memory-planning",
                         "resource-launch"]

    def test_tuning_disabled_drops_the_pass(self):
        names = [p.name for p in stitching_passes(CONFIG)]
        assert "launch-tuning" not in names
        assert len(names) == 6

    def test_atm_ablation_is_a_single_pass(self):
        config = AStitchConfig.adaptive_mapping_only()
        passes = stitching_passes(config)
        assert len(passes) == 1
        assert isinstance(passes[0], FusionKernelFormationPass)
        assert passes[0].name == "adaptive-thread-mapping"
        assert passes[0].params() == ("roots=xla_fusion_roots,"
                                      "mapping=adaptive")

    def test_compiler_variants_have_distinct_fingerprints(self):
        fingerprints = {
            compiler.name: compiler.build_pipeline().fingerprint()
            for compiler in (
                AStitchCompiler(),
                AStitchCompiler(AStitchConfig.adaptive_mapping_only()),
                AStitchCompiler(AStitchConfig.no_dominant_merging()),
                AStitchCompiler(AStitchConfig.regional_only()),
                AStitchCompiler(AStitchConfig.heuristic_mappings()),
            )
        }
        assert len(fingerprints) == 5  # every variant keeps its name
        assert len(set(fingerprints.values())) == 5
