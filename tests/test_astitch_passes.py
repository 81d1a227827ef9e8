"""Unit tests for the extracted AStitch compilation passes.

Phases 1-4 (Sec 4) are discrete passes and phases 5-7 one lowering
pass, over the shared ``state.scratch["astitch"]`` work list; these
tests run them pass by pass on small graphs and check what each one
contributes, that the phase-major decomposition reproduces the
compiler's own kernels, and that each scope is lowered once (twice when
the tuner compares two launches).
"""

from __future__ import annotations

import pytest

from repro.core import AStitchCompiler, passes
from repro.core.config import AStitchConfig
from repro.core.passes import (
    SCRATCH_KEY,
    DominantAnalysisPass,
    LaunchTuningPass,
    SchedulePropagationPass,
    StitchLoweringPass,
    StitchScopeIdentificationPass,
    lower_scope,
    same_launch,
    scope_works,
    stitching_passes,
)
from repro.core.schemes import StitchScheme
from repro.gpu.spec import V100
from repro.pipeline import CompileState, FusionKernelFormationPass
from repro.runtime.engine import Engine
from repro.workloads import build, micro

CONFIG = AStitchConfig.heuristic_mappings()


def _state(graph=None) -> CompileState:
    return CompileState(graph=graph or micro.softmax_graph(64, 256),
                        spec=V100)


def _phases(config):
    return [StitchScopeIdentificationPass(config),
            DominantAnalysisPass(config),
            SchedulePropagationPass(config),
            StitchLoweringPass(config)]


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
        details = _run_through(state, CONFIG, "stitch-lowering")
        for work in scope_works(state):
            schemes = work.lowering.schemes
            assert schemes
            assert set(schemes) <= work.scope.node_set
            assert all(isinstance(s, StitchScheme)
                       for s in schemes.values())
        counts = details["stitch-lowering"]
        assert sum(counts[s.name.lower()] for s in StitchScheme) \
            == sum(len(w.lowering.schemes) for w in scope_works(state))


class TestMemoryPlanning:
    def test_plans_every_scope(self):
        state = _state()
        detail = _run_through(state, CONFIG,
                              "stitch-lowering")["stitch-lowering"]
        smem = 0
        for work in scope_works(state):
            kernels = work.lowering.kernels
            if work.lowering.per_group:
                assert kernels
                smem += sum(k.smem_per_block for k in kernels)
            else:
                assert len(kernels) == 1
                assert kernels[0].smem_per_block \
                    <= V100.shared_memory_per_block
                smem += kernels[0].smem_per_block
        assert detail["smem_bytes"] == smem


class TestCodegen:
    def test_emits_one_kernel_per_stitched_scope(self):
        state = _state()
        _run_through(state, CONFIG, "stitch-lowering")
        works = scope_works(state)
        expected = sum(len(w.lowering.kernels) if w.lowering.per_group
                       else 1 for w in works)
        assert len(state.kernels) == expected
        names = [k.name for k in state.kernels]
        assert names == sorted(names, key=names.index)  # formation order
        for work in works:
            if not work.lowering.per_group:
                assert f"stitch_{work.scope.scope_id}" in names

    def test_phase_major_matches_compiler(self):
        """Running the phases across all scopes yields exactly the
        kernels the compiler's own pipeline produces."""
        graph = micro.softmax_graph(64, 256)
        state = _state(graph)
        _run_through(state, CONFIG, "stitch-lowering")
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
                              work.analysis, work.launch, CONFIG).kernels
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


class TestOneLowering:
    """A representative is lowered once, by the tuning pass or by the
    lowering pass; a compared one twice, and the lowering that wins the
    comparison is the one the module emits."""

    @pytest.mark.parametrize("make, classes, compared", [
        (lambda: micro.row_reduce(200, 200_000), 1, 1),
        (lambda: build("CRNN", batch=17), 9, 4),
    ], ids=["row_reduce-200x200000", "CRNN-17"])
    def test_compared_scope_lowered_twice(self, make, classes, compared,
                                          monkeypatch, fresh_caches):
        calls = {"lowerings": 0, "comparisons": 0}
        assign = passes.assign_scope_schemes
        variant_time = Engine.variant_time

        def counting_assign(*args, **kwargs):
            calls["lowerings"] += 1
            return assign(*args, **kwargs)

        def counting_variant_time(engine, kernels):
            calls["comparisons"] += 1
            return variant_time(engine, kernels)

        monkeypatch.setattr(passes, "assign_scope_schemes", counting_assign)
        monkeypatch.setattr(Engine, "variant_time", counting_variant_time)
        module = AStitchCompiler().compile(make(), V100)
        details = {r.pass_name: r.detail for r in module.pass_reports}
        assert details["schedule-propagation"]["scope_classes"] == classes
        assert calls["comparisons"] == 2 * compared
        assert calls["lowerings"] == classes + compared

    def test_tuned_lowering_is_emitted(self, fresh_caches):
        full = AStitchConfig.full()
        state = _state(micro.row_reduce(200, 200_000))
        for pass_obj in (StitchScopeIdentificationPass(full),
                         DominantAnalysisPass(full),
                         SchedulePropagationPass(full),
                         LaunchTuningPass(full)):
            pass_obj.run(state)
        [work] = scope_works(state)
        kernels = work.lowering.kernels
        StitchLoweringPass(full).run(state)
        assert [id(k) for k in state.kernels] == [id(k) for k in kernels]


class TestPipelineAssembly:
    def test_full_config_with_tuning(self):
        names = [p.name for p in stitching_passes(AStitchConfig.full())]
        assert names == ["stitch-scope-id", "dominant-analysis",
                         "schedule-propagation", "launch-tuning",
                         "stitch-lowering"]

    def test_tuning_disabled_drops_the_pass(self):
        names = [p.name for p in stitching_passes(CONFIG)]
        assert "launch-tuning" not in names
        assert len(names) == 4

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
