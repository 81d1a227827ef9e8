"""The launch-config autotuner and its persistent decision cache.

Pins the contracts the compiler builds on: candidate #0 is the mapping
the untuned pipeline emits, so tuned modules never price worse than the
heuristic ones; cache keys invalidate on every input that matters (and
only those), and the shared cache cannot alias ablations; tie-break is
a total order so repeated sweeps are bit-identical.  The cache's tier
behaviour (round trip, LRU, corrupt files, format version) is covered
with the other stores in ``tests/test_store.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro import reset_caches
from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel
from repro.codegen.schedule import MappingKind
from repro.compilers import FusionStitchingCompiler
from repro.core import AStitchCompiler, AStitchConfig
from repro.core.adaptive import unify_launch
from repro.core.dominants import analyze_scope
from repro.core.scope import identify_stitch_scopes
from repro.gpu.costmodel import cost_model_for
from repro.gpu.spec import A100, T4, V100
from repro.runtime.engine import Engine
from repro.runtime.plan import module_pricing_signature
from repro.store import key_digest
from repro.tuning import (
    GroupSignature,
    GroupTuner,
    TunedDecision,
    TuningCache,
    TuningKey,
    candidates_for,
    proxy_cost_inputs,
    signature_for_group,
)
from repro.workloads import WORKLOADS, build, micro


# Each test starts from an empty process-wide tuning cache.
pytestmark = pytest.mark.usefixtures("fresh_caches")


def row_reduce_sig(rows=200, width=200_000, needs_barrier=False):
    return GroupSignature(
        kind=MappingKind.ROW_REDUCE.value, rows=rows, width=width,
        num_elements=rows, bytes_read=float(rows * width * 4),
        bytes_written=float(rows * 4),
        fp_instructions=float(rows * width), needs_barrier=needs_barrier)


def elementwise_sig(n=1 << 20):
    return GroupSignature(
        kind=MappingKind.ELEMENTWISE.value, rows=1, width=1,
        num_elements=n, bytes_read=float(n * 8),
        bytes_written=float(n * 4), fp_instructions=float(3 * n),
        needs_barrier=False)


class TestNeverWorse:
    """Candidate #0 is the heuristic, so the winner prices <= it."""

    @pytest.mark.parametrize("sig", [
        row_reduce_sig(),
        row_reduce_sig(needs_barrier=True),
        row_reduce_sig(rows=750_000, width=32),
        elementwise_sig(),
        dataclasses.replace(row_reduce_sig(rows=256, width=256),
                            kind=MappingKind.COLUMN_REDUCE.value),
    ], ids=["row-free", "row-barrier", "tall-rows", "elementwise",
            "column"])
    def test_tuned_time_bounded_by_heuristic(self, sig):
        decision = GroupTuner(V100).tune_signature(sig)
        assert decision.tuned_time <= decision.heuristic_time
        assert decision.heuristic_mapping == candidates_for(sig, V100)[0]
        assert decision.num_candidates >= 1
        assert decision.improvement >= 0.0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_workload_tuned_not_worse(self, name):
        graph = build(name)
        engine = Engine(V100)
        tuned = engine.run(AStitchCompiler().compile(graph))
        heuristic = engine.run(AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph))
        assert tuned.total_time <= heuristic.total_time * (1 + 1e-12), name

    def test_irregular_row_reduce_improves(self):
        # The no-barrier case where the paper's always-pack-to-one-wave
        # rule leaves occupancy on the table.
        decision = GroupTuner(V100).tune_signature(row_reduce_sig())
        assert decision.improvement > 0.10

    def test_barrier_constrains_grid_to_one_wave(self):
        sig = row_reduce_sig(needs_barrier=True)
        for mapping in candidates_for(sig, V100):
            from repro.gpu.occupancy import occupancy
            wave = occupancy(V100, mapping.block_size).blocks_per_wave
            assert mapping.grid_size <= wave


class TestDeterminism:
    def test_repeated_sweeps_identical(self):
        winners = set()
        for _ in range(3):
            tuner = GroupTuner(V100, cache=TuningCache())
            winners.add(tuner.tune_signature(row_reduce_sig()).mapping)
        assert len(winners) == 1

    def test_all_tied_sweep_keeps_heuristic(self):
        # The incumbent rule: deviating must pay.  An all-tied sweep
        # returns candidate #0 (the heuristic) exactly.
        sig = elementwise_sig()

        class _Zero:
            def launch_durations(self, grid, *columns, **knobs):
                return np.zeros(len(grid))

        tuner = GroupTuner(V100, cache=TuningCache(), cost_model=_Zero())
        decision = tuner.tune_signature(sig)
        assert decision.mapping == candidates_for(sig, V100)[0]
        assert decision.mapping == decision.heuristic_mapping

    def test_tie_break_among_winners_is_total_order(self):
        # When several candidates beat the heuristic by the same margin,
        # the smallest sort_key wins regardless of enumeration order.
        sig = elementwise_sig()
        cands = candidates_for(sig, V100)

        class _HeuristicWorst:
            def launch_durations(self, grid, *columns, **knobs):
                return np.array([1.0] + [0.5] * (len(grid) - 1))

        tuner = GroupTuner(V100, cache=TuningCache(),
                           cost_model=_HeuristicWorst())
        decision = tuner.tune_signature(sig)
        assert decision.mapping == min(cands[1:],
                                       key=lambda m: m.sort_key())

    @pytest.mark.parametrize("sig", [
        row_reduce_sig(), row_reduce_sig(rows=4096, width=512),
        elementwise_sig(1000),
        dataclasses.replace(row_reduce_sig(rows=7, width=300_000),
                            kind=MappingKind.COLUMN_REDUCE.value)],
        ids=["row", "packed-rows", "elementwise", "column"])
    def test_tie_break_on_every_sort_key_field(self, sig):
        # Winners tied on duration *and* grid fall through to the later
        # sort_key fields (larger block first, then least decomposition).
        cands = candidates_for(sig, V100)
        grids = [m.grid_size for m in cands[1:]]
        shared = next(g for g in grids if grids.count(g) > 1)

        class _SharedGridWins:
            def launch_durations(self, grid, *columns, **knobs):
                times = np.where(grid == shared, 0.5, 1.0)
                times[0] = 1.0
                return times

        tuner = GroupTuner(V100, cache=TuningCache(),
                           cost_model=_SharedGridWins())
        assert tuner.tune_signature(sig).mapping == min(
            (m for m in cands[1:] if m.grid_size == shared),
            key=lambda m: m.sort_key())

    def test_signature_digest_stable(self):
        def digest(sig):
            return key_digest(TuningKey(group=sig, spec=V100))

        assert digest(row_reduce_sig()) == digest(row_reduce_sig())
        assert digest(row_reduce_sig()) != digest(elementwise_sig())

    def test_sweep_leaves_price_memo_alone(self):
        # Candidates are priced by the memo-free array path: fresh
        # signatures add no proxy KernelCostInputs to the shared memo.
        model = cost_model_for(V100)
        before = (len(model._memo), model.memo_hits, model.memo_misses)
        sigs = [row_reduce_sig(), row_reduce_sig(needs_barrier=True),
                elementwise_sig(),
                dataclasses.replace(row_reduce_sig(rows=256, width=256),
                                    kind=MappingKind.COLUMN_REDUCE.value)]
        decisions = GroupTuner(V100, cache=TuningCache()) \
            .tune_signatures(sigs)
        assert sum(d.num_candidates for d in decisions) > len(sigs)
        assert (len(model._memo), model.memo_hits,
                model.memo_misses) == before

    @pytest.mark.parametrize("name", ["CRNN", "DIEN"])
    def test_sweep_atomic_column_is_accumulates(self, name):
        # The sweep prices every candidate with the array form of
        # ThreadMapping.accumulates; the two must agree row for row.
        graph = build(name)
        sigs = {}
        for scope in identify_stitch_scopes(graph):
            analysis = analyze_scope(graph, scope.nodes)
            for group in analysis.groups:
                sigs[signature_for_group(group, analysis.stages > 1)] = None
        seen = []

        class _Recording:
            def launch_durations(self, grid, block, read, written, fp,
                                 atomic_rounds, **knobs):
                seen.append(atomic_rounds)
                return np.zeros(len(grid))

        GroupTuner(V100, cache=TuningCache(),
                   cost_model=_Recording()).tune_signatures(list(sigs))
        expected = [int(mapping.accumulates) for sig in sigs
                    for mapping in candidates_for(sig, V100)]
        assert len(seen) == 1
        assert seen[0].tolist() == expected
        assert any(expected) and not all(expected)

    def test_batch_matches_one_by_one(self):
        sigs = [row_reduce_sig(), elementwise_sig(),
                row_reduce_sig(rows=96, width=100_000)]
        batched = GroupTuner(V100, cache=TuningCache()) \
            .tune_signatures(sigs)
        single = [GroupTuner(V100, cache=TuningCache()).tune_signature(s)
                  for s in sigs]
        assert [d.mapping for d in batched] == [d.mapping for d in single]


class TestTuningCache:
    def _key(self, sig=None, spec=V100):
        sig = sig if sig is not None else row_reduce_sig()
        return TuningKey(group=sig, spec=spec)

    def _decision(self):
        sig = row_reduce_sig()
        mapping = candidates_for(sig, V100)[0]
        return TunedDecision(mapping=mapping, heuristic_mapping=mapping,
                             tuned_time=1e-4, heuristic_time=1e-4,
                             num_candidates=1)

    def test_memory_round_trip(self):
        cache = TuningCache()
        key = self._key()
        assert cache.get(key) is None
        cache.put(key, self._decision())
        assert cache.get(key) == self._decision()
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_disk_round_trip(self, tmp_path):
        key = self._key()
        TuningCache(cache_dir=tmp_path).put(key, self._decision())
        assert list(tmp_path.glob("tune_*.pkl"))
        # A brand-new process-equivalent cache serves it from disk.
        fresh = TuningCache(cache_dir=tmp_path)
        assert fresh.get(key) == self._decision()
        assert fresh.stats.disk_hits == 1

    def test_spec_change_misses(self, tmp_path):
        cache = TuningCache(cache_dir=tmp_path)
        cache.put(self._key(), self._decision())
        assert cache.get(self._key(spec=T4)) is None
        tweaked = dataclasses.replace(V100, num_sms=V100.num_sms + 1)
        assert cache.get(self._key(spec=tweaked)) is None

    def test_signature_change_misses(self):
        cache = TuningCache()
        cache.put(self._key(), self._decision())
        assert cache.get(self._key(sig=elementwise_sig())) is None

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = TuningCache(cache_dir=tmp_path)
        key = self._key()
        cache.put(key, self._decision())
        for path in tmp_path.glob("tune_*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = TuningCache(cache_dir=tmp_path)
        assert fresh.get(key) is None

    def test_lru_eviction(self):
        cache = TuningCache(capacity=2)
        keys = [self._key(spec=spec) for spec in (V100, T4, A100)]
        for key in keys:
            cache.put(key, self._decision())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert keys[0] not in cache and keys[2] in cache

    def test_tuner_reuses_cached_decision(self):
        cache = TuningCache()
        tuner = GroupTuner(V100, cache=cache)
        first = tuner.tune_signature(row_reduce_sig())
        assert cache.stats.misses == 1
        second = tuner.tune_signature(row_reduce_sig())
        assert second == first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_digest_depends_on_all_parts(self):
        base = self._key()
        assert key_digest(base) == key_digest(self._key())
        assert key_digest(base) != key_digest(self._key(spec=T4))
        assert key_digest(base) != key_digest(
            self._key(sig=elementwise_sig()))


class TestCompilerIntegration:
    def test_tune_flag_changes_compiler_name(self):
        assert AStitchCompiler().name == "AStitch"
        assert AStitchCompiler(
            AStitchConfig.heuristic_mappings()).name == "AStitch-heuristic"

    def test_codegen_tag_reflects_tuning(self):
        graph = micro.softmax_graph(64, 64)
        tuned = AStitchCompiler().compile(graph)
        heuristic = AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph)
        # Folded into every pricing signature, the golden file's too.
        assert tuned.codegen_tag == "tune:atm=1|block=1024"
        assert heuristic.codegen_tag == ""

    def test_micro_row_reduce_tuned_not_worse(self):
        graph = micro.row_reduce(200, 200_000)
        engine = Engine(V100)
        tuned = engine.run(AStitchCompiler().compile(graph))
        heuristic = engine.run(AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph))
        assert tuned.total_time <= heuristic.total_time

    def test_tuned_module_matches_numerics(self):
        from repro.ir.interpreter import evaluate, random_feeds
        graph = micro.softmax_graph(33, 700)
        feeds = random_feeds(graph, seed=7)
        want = evaluate(graph, feeds)
        module = AStitchCompiler().compile(graph)
        got = module.execute(feeds)
        for name, value in want.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-5,
                                       atol=1e-6)


REGISTRY = ("CRNN", "ASR", "BERT", "DIEN")


class TestHeuristicCandidate:
    """Candidate #0 is the mapping the untuned pipeline emits: the
    never-worse guarantee compares against the real heuristic."""

    @pytest.mark.parametrize("name", REGISTRY)
    def test_candidate_zero_is_pipeline_mapping(self, name):
        checked = 0
        for batch in (1, 48):
            graph = build(name, batch=batch)
            for scope in identify_stitch_scopes(graph):
                analysis = analyze_scope(graph, scope.nodes)
                needs_barrier = analysis.stages > 1
                for spec in (V100, T4, A100):
                    launch = unify_launch(analysis.groups, spec,
                                          needs_barrier)
                    for group in analysis.groups:
                        sig = signature_for_group(group, needs_barrier)
                        assert candidates_for(sig, spec)[0] \
                            == launch.group_mappings[group.group_id], \
                            (name, batch, spec.name, group.dominant.name)
                        checked += 1
        assert checked >= 100


def _steps(module) -> list:
    return [(step.name, step.mapping, kernel_cost_inputs(step))
            if isinstance(step, Kernel) else (type(step).__name__, step.name)
            for step in module.steps]


class TestSharedCacheAblations:
    """Ablations share the process-wide tuning cache with the full
    compiler under keys that carry no config: compiling one right after
    a full AStitch compile must give the module a cold compile gives."""

    ABLATIONS = {
        "FusionStitching": FusionStitchingCompiler,
        "HDM": lambda: AStitchCompiler(AStitchConfig.no_dominant_merging()),
        "remote_stitching=False": lambda: AStitchCompiler(
            AStitchConfig(remote_stitching=False)),
    }

    @pytest.mark.parametrize("name", REGISTRY)
    def test_ablation_after_full_compile_matches_cold(self, name):
        graph = build(name)
        for label, make in self.ABLATIONS.items():
            reset_caches()
            cold = make().compile(graph)
            reset_caches()
            AStitchCompiler().compile(graph)
            shared = make().compile(graph)
            assert module_pricing_signature(shared) \
                == module_pricing_signature(cold), label
            assert _steps(shared) == _steps(cold), label
