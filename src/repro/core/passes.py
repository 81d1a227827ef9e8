"""The AStitch compilation phases as discrete pipeline passes (Sec 4).

One pass per paper phase, each individually runnable and testable:

1. :class:`StitchScopeIdentificationPass` — stitching-scope
   identification + remote stitching (:mod:`repro.core.scope`);
2. :class:`DominantAnalysisPass` — dominant identification, merging and
   op grouping (:mod:`repro.core.dominants`);
3. :class:`SchedulePropagationPass` — adaptive thread mapping +
   schedule propagation under a unified launch
   (:mod:`repro.core.adaptive`);
4. :class:`LaunchTuningPass` — optional cost-model search over the
   per-group launch space, guarded by a lowered best-of comparison
   (:mod:`repro.tuning`);
5. :class:`BlockLocalityPass` — scheme finalization via block-locality
   checking (:mod:`repro.core.locality`);
6. :class:`MemoryPlanningPass` — shared-memory budgeting with
   regional->global demotion and global scratch planning
   (:mod:`repro.core.memplan`);
7. :class:`StitchCodegenPass` — resource-aware launch configuration
   (:mod:`repro.core.launch`) and stitch-kernel emission.

The passes communicate through ``state.scratch["astitch"]``: a list of
:class:`ScopeWork` records, one per stitch scope, that accumulate the
per-scope intermediates phase by phase.  The lowering steps are plain
module functions (:func:`assign_scope_schemes`, :func:`plan_scope_memory`,
:func:`emit_stitch_kernel`, ...) composed by :func:`lower_scope`; the
tuning pass prices candidate launches through exactly the same functions
the later passes run, so the chosen variant lowers to identical kernels
by construction.

Phases 1 and 2 do not depend on dims, so their results are memoized by
topology fingerprint (:data:`TOPOLOGY_MEMO`): every later batch size of
a workload rebinds them, and only phases 3-7 run per shape.

:func:`adaptive_mapping_factory` is the ``ATM`` ablation's mapping
rule: the shared kernel-formation pass applies it on XLA's fusion
scopes, no stitching.
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array
from itertools import islice
from typing import Any, Optional

from repro.codegen.builder import make_kernel
from repro.codegen.kernel import Kernel
from repro.codegen import mapping as mappings
from repro.codegen.schedule import ThreadMapping
from repro.compilers.common import MappingFn, xla_fusion_roots
from repro.core.adaptive import UnifiedLaunch, unify_launch
from repro.core.config import AStitchConfig
from repro.core.dominants import (ScopeAnalysis, analyze_scope,
                                  guards_hold, pack_analyses, pack_guards,
                                  unpack_analyses)
from repro.core.launch import configure_launch
from repro.core.locality import assign_schemes
from repro.core.memplan import plan_memory
from repro.core.schemes import StitchScheme
from repro.core.scope import StitchScope, identify_stitch_scopes
from repro.gpu.spec import GPUSpec
from repro.ir.fingerprint import topology_fingerprint
from repro.ir.graph import Graph, Node
from repro.ir.ops import OpKind
from repro.pipeline.base import CompileState, Pass
from repro.pipeline.lowering import FusionKernelFormationPass
from repro.store import TieredStore, register

# The scratch slot the AStitch passes share.
SCRATCH_KEY = "astitch"
# The scratch slot phase 1 leaves phase 2: its topology key and entry.
TOPOLOGY_SLOT = "astitch-topology"


@dataclasses.dataclass
class ScopeWork:
    """Per-scope intermediates accumulated across the AStitch passes.

    Attributes:
        scope: The stitch scope (phase 1).
        analysis: Dominants, groups, stages, duplication (phase 2).
        needs_barrier: Whether the scope's kernel will need in-kernel
            global barriers (multi-stage + global scheme enabled).
        launch: The scope's unified launch — heuristic after phase 3,
            possibly replaced by the tuned winner in phase 4.
        schemes: Node -> stitching scheme (phase 5).
        per_group: Regional-only fallback: lower one kernel per
            schedule-group component instead of one stitched kernel.
        plan: Stitch-mode memory plan (phase 6).
        components: Per-group-mode component plans (phase 6).
    """

    scope: StitchScope
    analysis: Optional[ScopeAnalysis] = None
    needs_barrier: bool = False
    launch: Optional[UnifiedLaunch] = None
    schemes: Optional[dict[Node, StitchScheme]] = None
    per_group: bool = False
    plan: Any = None
    components: Optional[list["ComponentPlan"]] = None


def scope_works(state: CompileState) -> list[ScopeWork]:
    """The AStitch work list a previous pass left in scratch."""
    try:
        return state.scratch[SCRATCH_KEY]
    except KeyError:
        raise KeyError(
            "no AStitch scope work in compile state — did "
            "stitch-scope-id run?") from None


# -- lowering steps (shared by the passes and the tuning comparator) -----------


def group_sccs(graph: Graph, scope_set: set[Node],
               analysis: ScopeAnalysis) -> list[list[int]]:
    """Strongly-connected components of the group DAG, in topological
    order of the condensation (iterative Kosaraju — the group graph is
    tiny but may legitimately contain cycles after merging)."""
    num = len(analysis.groups)
    fwd: dict[int, set[int]] = {g: set() for g in range(num)}
    rev: dict[int, set[int]] = {g: set() for g in range(num)}
    for node in scope_set:
        src = analysis.group_of[node]
        for user in graph.users(node):
            if user in scope_set and analysis.group_of[user] != src:
                fwd[src].add(analysis.group_of[user])
                rev[analysis.group_of[user]].add(src)

    visited: set[int] = set()
    finish_order: list[int] = []
    for start in range(num):
        if start in visited:
            continue
        stack = [(start, iter(fwd[start]))]
        visited.add(start)
        while stack:
            current, children = stack[-1]
            advanced = False
            for child in children:
                if child not in visited:
                    visited.add(child)
                    stack.append((child, iter(fwd[child])))
                    advanced = True
                    break
            if not advanced:
                finish_order.append(current)
                stack.pop()

    assigned: set[int] = set()
    sccs: list[list[int]] = []
    for start in reversed(finish_order):
        if start in assigned:
            continue
        component = [start]
        assigned.add(start)
        queue = [start]
        while queue:
            current = queue.pop()
            for prev in rev[current]:
                if prev not in assigned:
                    assigned.add(prev)
                    component.append(prev)
                    queue.append(prev)
        sccs.append(sorted(component))
    return sccs


def propagate_schedule(analysis: ScopeAnalysis, spec: GPUSpec,
                       cfg: AStitchConfig,
                       ) -> tuple[bool, UnifiedLaunch]:
    """Phase 3 for one scope: barrier need + heuristic unified launch."""
    needs_barrier = analysis.stages > 1 and cfg.enable_global_scheme
    launch = unify_launch(analysis.groups, spec,
                          cfg.adaptive_thread_mapping, needs_barrier,
                          cfg.max_block_size)
    return needs_barrier, launch


def assign_scope_schemes(graph: Graph, scope: StitchScope,
                         analysis: ScopeAnalysis, launch: UnifiedLaunch,
                         cfg: AStitchConfig,
                         ) -> tuple[dict[Node, StitchScheme], bool]:
    """Phase 5 for one scope: schemes + regional-only fallback decision.

    When the global scheme is disabled but block locality demands it,
    the scope cannot stay one kernel — it falls back to one kernel per
    schedule-group component (the FusionStitching predecessor design).
    """
    schemes = assign_schemes(graph, analysis, launch.group_mappings,
                             scope.node_set,
                             allow_global=cfg.enable_global_scheme)
    wants_global = any(s is StitchScheme.GLOBAL for s in schemes.values())
    per_group = (not cfg.enable_global_scheme and wants_global
                 and len(analysis.groups) > 1)
    return schemes, per_group


def plan_scope_memory(graph: Graph, analysis: ScopeAnalysis,
                      launch: UnifiedLaunch,
                      schemes: dict[Node, StitchScheme], spec: GPUSpec):
    """Phase 6 for one stitched scope."""
    reduce_groups = sum(1 for g in analysis.groups
                        if g.dominant.kind is OpKind.REDUCE)
    return plan_memory(graph, schemes, launch.grid_size,
                       launch.block_size, spec, analysis.group_of,
                       analysis.group_stage, reduce_groups)


def emit_stitch_kernel(graph: Graph, scope: StitchScope,
                       analysis: ScopeAnalysis, launch: UnifiedLaunch,
                       plan, launch_cfg) -> Kernel:
    """Phase 7 for one stitched scope: the single stitch-op kernel."""
    grid = launch.grid_size
    has_global_values = any(s is StitchScheme.GLOBAL
                            for s in plan.schemes.values())
    barriers = 0
    if has_global_values:
        # Consumers of a global-scheme value may live in other blocks;
        # each group-DAG stage boundary needs one device-wide barrier
        # (at least one even for a single stage, to publish atomics).
        barriers = max(1, analysis.stages - 1)
        grid = min(grid, launch_cfg.blocks_per_wave)

    placements = {
        node: scheme.memory_space
        for node, scheme in plan.schemes.items()
        if scheme in (StitchScheme.REGIONAL, StitchScheme.GLOBAL)
    }
    redundancy = {n: f for n, f in analysis.duplication.items()
                  if f > 1.0}
    read_factors = {op: float(g)
                    for op, g in analysis.input_read_groups.items()
                    if g > 1}

    unified = launch.as_mapping()
    mapping = type(unified)(unified.kind, grid, unified.block_size)
    kernel = make_kernel(
        graph, scope.nodes, mapping,
        name=f"stitch_{scope.scope_id}",
        placements=placements,
        redundancy=redundancy,
        num_global_barriers=barriers,
    )
    kernel.input_read_factors = read_factors
    kernel.regs_per_thread = launch_cfg.register_bound
    kernel.smem_per_block = plan.smem_per_block
    kernel.extra_atomic_rounds = sum(
        1 for m in launch.group_mappings.values() if m.uses_atomics)
    return kernel


@dataclasses.dataclass
class ComponentPlan:
    """One schedule-group component of a regional-only scope."""

    index: int
    nodes: list[Node]
    mapping: ThreadMapping
    plan: Any


def component_plans(graph: Graph, scope: StitchScope,
                    analysis: ScopeAnalysis, launch: UnifiedLaunch,
                    schemes: dict[Node, StitchScheme], spec: GPUSpec,
                    ) -> list[ComponentPlan]:
    """Phase 6 for a regional-only scope: one plan per group-DAG SCC.

    Cross-group values travel through global memory *between* kernels
    (ordinary kernel outputs/inputs) instead of through an in-kernel
    global scheme.  Groups whose dependencies form a cycle cannot be
    separate kernels, so each strongly-connected component of the group
    DAG becomes one kernel.
    """
    components = group_sccs(graph, scope.node_set, analysis)
    plans = []
    for idx, group_ids in enumerate(components):
        nodes: set[Node] = set()
        for gid in group_ids:
            nodes |= set(analysis.groups[gid].nodes)
        mapping = max(
            (launch.group_mappings[gid] for gid in group_ids),
            key=lambda m: m.grid_size * m.block_size)
        component_schemes = {
            node: scheme for node, scheme in schemes.items()
            if node in nodes and scheme is StitchScheme.REGIONAL
        }
        reduce_groups = sum(
            1 for gid in group_ids
            if analysis.groups[gid].dominant.kind is OpKind.REDUCE)
        plan = plan_memory(graph, component_schemes, mapping.grid_size,
                           mapping.block_size, spec,
                           analysis.group_of, analysis.group_stage,
                           reduce_groups=reduce_groups)
        plans.append(ComponentPlan(
            index=idx,
            nodes=sorted(nodes, key=lambda n: n.node_id),
            mapping=mapping,
            plan=plan))
    return plans


def emit_component_kernel(graph: Graph, scope: StitchScope,
                          component: ComponentPlan) -> Kernel:
    """Phase 7 for one component of a regional-only scope."""
    placements = {node: scheme.memory_space
                  for node, scheme in component.plan.schemes.items()}
    kernel = make_kernel(
        graph, component.nodes, component.mapping,
        name=f"stitch_{scope.scope_id}_c{component.index}",
        placements=placements,
    )
    kernel.smem_per_block = component.plan.smem_per_block
    return kernel


def lower_scope(graph: Graph, scope: StitchScope, spec: GPUSpec,
                analysis: ScopeAnalysis, launch: UnifiedLaunch,
                cfg: AStitchConfig) -> list[Kernel]:
    """Lower one scope under one launch: phases 5-7 composed.

    This is the same code path the passes run phase by phase — the
    tuning comparator prices candidates through it, so whichever launch
    wins, the pipeline re-derives identical kernels.
    """
    schemes, per_group = assign_scope_schemes(graph, scope, analysis,
                                              launch, cfg)
    if per_group:
        return [emit_component_kernel(graph, scope, component)
                for component in component_plans(graph, scope, analysis,
                                                 launch, schemes, spec)]
    plan = plan_scope_memory(graph, analysis, launch, schemes, spec)
    launch_cfg = configure_launch(spec, launch.block_size,
                                  plan.smem_per_block)
    return [emit_stitch_kernel(graph, scope, analysis, launch, plan,
                               launch_cfg)]


# -- tuning ----------------------------------------------------------------------


# Group signatures per graph, so a warm recompile skips the traffic scan.
# No stored node references its graph: a dropped graph drops its entries.
_SIGNATURES: "weakref.WeakKeyDictionary[Graph, dict]" = register(
    "tuning-signatures", weakref.WeakKeyDictionary())


def tuned_launch_for(graph: Graph, analysis: ScopeAnalysis, spec: GPUSpec,
                     needs_barrier: bool, cfg: AStitchConfig):
    """Autotune the scope's groups and unify the winning mappings.

    Returns the tuned launch, the scope's verdict-cache key and the
    tuning cache itself (the caller stores the lowered best-of verdict
    under that key so warm compiles lower each scope once).
    """
    from repro.tuning import GroupTuner, signature_for_group
    tuner = GroupTuner(spec)
    memo = _SIGNATURES.setdefault(graph, {})
    sigs = []
    for group in analysis.groups:
        key = (group.dominant, tuple(group.nodes), group.sub_dominants,
               needs_barrier, cfg.max_block_size)
        sig = memo.get(key)
        if sig is None:
            sig = memo[key] = signature_for_group(group, needs_barrier,
                                                  cfg.max_block_size)
        sigs.append(sig)
    decisions = tuner.tune_signatures(sigs, config_tag=cfg.tuning_tag())
    if all(decision.mapping == decision.heuristic_mapping
           for decision in decisions):
        # Every group keeps its heuristic: the override unification
        # would reproduce the caller's launch bit for bit.
        return None, None, tuner.cache
    overrides = {group.group_id: decision.mapping
                 for group, decision in zip(analysis.groups, decisions)}
    tuned = unify_launch(analysis.groups, spec, True, needs_barrier,
                         cfg.max_block_size, overrides=overrides)
    return tuned, tuner.scope_key(sigs, cfg.tuning_tag()), tuner.cache


def scope_cost(kernels: list[Kernel], spec: GPUSpec) -> float:
    """Modeled wall time of a scope's kernels as the engine sees it.

    Per kernel: duration, the visible part of its launch latency, and
    the dispatch cost — plus the kernel-dependent memcpy activities (a
    splitting mapping's atomics need a memset; the graph-level h2d/d2h
    staging is identical for every variant, so it cancels out of the
    comparison and is not priced here).
    """
    from repro.codegen.builder import kernel_cost_inputs
    from repro.compilers.base import kernel_memcpys
    from repro.gpu.costmodel import cost_model_for
    from repro.runtime import engine
    model = cost_model_for(spec)
    priced = model.price_batch([kernel_cost_inputs(k) for k in kernels])
    launch = spec.kernel_launch_latency
    total = sum(c.duration
                + max(engine.LAUNCH_FLOOR, launch - c.duration)
                + engine.COMPILED_DISPATCH_LATENCY
                for c in priced)
    for call in kernel_memcpys(kernels):
        total += spec.memcpy_latency \
            + call.nbytes / (spec.dram_bandwidth / 4)
    return total


def same_launch(left: UnifiedLaunch, right: UnifiedLaunch) -> bool:
    """Whether two unified launches lower identically."""
    return (left.group_mappings == right.group_mappings
            and left.grid_size == right.grid_size
            and left.block_size == right.block_size)


# -- phases 1-2 per topology -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TopologyEntry:
    """Phases 1 and 2 of one topology, each node written as its position
    in ``graph.nodes``, in flat int arrays: one object per field, not
    per scope or group, so a 2000-scope graph takes about 0.6 MB.

    Attributes:
        scopes: Each scope's length, then its node positions, in scope
            order; a scope's id is its index.
        analyses: The scopes' analyses, in scope order
            (:func:`~repro.core.dominants.pack_analyses`).
        guards: The dominant-weight comparisons phase 2 made
            (:func:`~repro.core.dominants.pack_guards`).
    """

    scopes: array
    analyses: tuple[array, array, array]
    guards: array

    @classmethod
    def pack(cls, graph: Graph, works: list[ScopeWork],
             compared: list) -> "TopologyEntry":
        """The entry for ``works`` after phase 2 ran on ``graph``."""
        position = {node: i for i, node in enumerate(graph.nodes)}
        scopes = array("i")
        for work in works:
            scopes.append(len(work.scope.nodes))
            scopes.extend([position[node] for node in work.scope.nodes])
        return cls(scopes,
                   pack_analyses([work.analysis for work in works], position),
                   pack_guards(compared, position))

    def stitch_scopes(self, nodes: tuple[Node, ...]) -> list[StitchScope]:
        """The stored scopes on ``nodes`` (a graph's ``nodes``)."""
        ints, scopes = iter(self.scopes), []
        for length in ints:
            scopes.append(StitchScope(
                len(scopes), [nodes[i] for i in islice(ints, length)]))
        return scopes


# Phases 1-2 by (topology fingerprint, remote_stitching,
# dominant_merging).  Neither phase reads dims beyond what the topology
# fingerprint keys, except the dominant weights the guards re-check, so
# every batch size of a workload shares one entry.  Memory-only.
TOPOLOGY_MEMO: TieredStore = register("topology-analyses", TieredStore())


def _topology_key(graph: Graph, cfg: AStitchConfig) -> tuple:
    return (topology_fingerprint(graph), cfg.remote_stitching,
            cfg.dominant_merging)


# -- the passes ------------------------------------------------------------------


class StitchScopeIdentificationPass(Pass):
    """Phase 1: identify the stitching scopes (Sec 4.1).

    A graph whose topology is in :data:`TOPOLOGY_MEMO` rebinds the
    stored scopes; the entry then serves phase 2 as well.
    """

    name = "stitch-scope-id"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"remote={int(self.config.remote_stitching)}"

    def run(self, state: CompileState) -> dict[str, Any]:
        nodes = state.graph.nodes
        key = _topology_key(state.graph, self.config)
        entry = TOPOLOGY_MEMO.get(
            key, fresh=lambda stored: guards_hold(stored.guards, nodes))
        if entry is None:
            scopes = identify_stitch_scopes(
                state.graph, remote_stitching=self.config.remote_stitching)
        else:
            scopes = entry.stitch_scopes(nodes)
        state.scratch[SCRATCH_KEY] = [ScopeWork(scope=s) for s in scopes]
        state.scratch[TOPOLOGY_SLOT] = (key, entry)
        return {"scopes": len(scopes),
                "nodes": sum(len(s.nodes) for s in scopes)}


class DominantAnalysisPass(Pass):
    """Phase 2: dominant identification, merging, op grouping (Sec 4.3).

    Rebinds phase 1's memo entry when there was one; otherwise analyses
    every scope and stores the entry for the topology.
    """

    name = "dominant-analysis"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"merging={int(self.config.dominant_merging)}"

    def run(self, state: CompileState) -> dict[str, Any]:
        works = scope_works(state)
        key, entry = state.scratch.pop(TOPOLOGY_SLOT, (None, None))
        if key != _topology_key(state.graph, self.config):
            key = entry = None  # phase 1 ran under another config
        if entry is not None:
            analyses = unpack_analyses(entry.analyses, state.graph.nodes)
            for work, analysis in zip(works, analyses):
                work.analysis = analysis
        else:
            compared: list = []
            for work in works:
                work.analysis = analyze_scope(
                    state.graph, work.scope.nodes,
                    dominant_merging=self.config.dominant_merging,
                    compared=compared)
            if key is not None:
                TOPOLOGY_MEMO.put(key, TopologyEntry.pack(
                    state.graph, works, compared))
        return {"groups": sum(len(w.analysis.groups) for w in works),
                "stages": sum(w.analysis.stages for w in works)}


class SchedulePropagationPass(Pass):
    """Phase 3: adaptive mapping + schedule propagation under one launch
    (Sec 3.3 / 4.4)."""

    name = "schedule-propagation"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        cfg = self.config
        return (f"adaptive={int(cfg.adaptive_thread_mapping)},"
                f"global={int(cfg.enable_global_scheme)},"
                f"max_block={cfg.max_block_size}")

    def run(self, state: CompileState) -> dict[str, Any]:
        barriers = 0
        for work in scope_works(state):
            work.needs_barrier, work.launch = propagate_schedule(
                work.analysis, state.spec, self.config)
            barriers += int(work.needs_barrier)
        return {"barrier_scopes": barriers}


class LaunchTuningPass(Pass):
    """Phase 4 (optional): cost-model search over per-group launches.

    The tuner ranks proxy kernels; the final unified launch
    (widest-operator provisioning, memory planning, assume-relax-apply)
    can shift the balance, so divergent candidates are compared as
    *lowered* scopes under the engine's own per-kernel accounting and
    the cheaper launch is kept.  Tuning therefore never regresses
    modeled latency, whatever the proxy missed; the verdict is cached by
    scope signature so warm compiles lower each scope once.
    """

    name = "launch-tuning"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"tag={self.config.tuning_tag()}"

    def run(self, state: CompileState) -> dict[str, Any]:
        cfg = self.config
        tuned_scopes = compared = 0
        for work in scope_works(state):
            tuned, verdict_key, cache = tuned_launch_for(
                state.graph, work.analysis, state.spec, work.needs_barrier,
                cfg)
            if tuned is None or same_launch(tuned, work.launch):
                # The search confirmed the heuristic — nothing to lower
                # twice (the warm-cache compile-time bound).
                continue
            verdict = cache.get(verdict_key)
            if verdict == "heuristic":
                continue
            if verdict == "tuned":
                work.launch = tuned
                tuned_scopes += 1
                continue
            heuristic_kernels = lower_scope(state.graph, work.scope,
                                            state.spec, work.analysis,
                                            work.launch, cfg)
            tuned_kernels = lower_scope(state.graph, work.scope,
                                        state.spec, work.analysis,
                                        tuned, cfg)
            tuned_wins = scope_cost(tuned_kernels, state.spec) \
                <= scope_cost(heuristic_kernels, state.spec)
            cache.put(verdict_key, "tuned" if tuned_wins else "heuristic")
            compared += 1
            if tuned_wins:
                work.launch = tuned
                tuned_scopes += 1
        return {"tuned_scopes": tuned_scopes, "compared": compared}


class BlockLocalityPass(Pass):
    """Phase 5: block-locality checking / scheme finalization (Sec 4.2)."""

    name = "block-locality"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"global={int(self.config.enable_global_scheme)}"

    def run(self, state: CompileState) -> dict[str, Any]:
        counts = {scheme.name.lower(): 0 for scheme in StitchScheme}
        fallbacks = 0
        for work in scope_works(state):
            work.schemes, work.per_group = assign_scope_schemes(
                state.graph, work.scope, work.analysis, work.launch,
                self.config)
            fallbacks += int(work.per_group)
            for scheme in work.schemes.values():
                counts[scheme.name.lower()] += 1
        return {**counts, "per_group_fallbacks": fallbacks}


class MemoryPlanningPass(Pass):
    """Phase 6: memory-usage planning (Sec 4.2's hierarchical data
    management: shared-memory budgeting, regional->global demotion,
    global scratch)."""

    name = "memory-planning"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def run(self, state: CompileState) -> dict[str, Any]:
        smem = 0
        components = 0
        for work in scope_works(state):
            if work.per_group:
                work.components = component_plans(
                    state.graph, work.scope, work.analysis, work.launch,
                    work.schemes, state.spec)
                components += len(work.components)
                smem += sum(c.plan.smem_per_block
                            for c in work.components)
            else:
                work.plan = plan_scope_memory(
                    state.graph, work.analysis, work.launch,
                    work.schemes, state.spec)
                smem += work.plan.smem_per_block
        return {"smem_bytes": smem, "components": components}


class StitchCodegenPass(Pass):
    """Phase 7: resource-aware launch configuration (Sec 4.5) and
    stitch-op emission — one kernel per scope (or per component on the
    regional-only fallback)."""

    name = "resource-launch"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def run(self, state: CompileState) -> dict[str, Any]:
        barriers = 0
        for work in scope_works(state):
            if work.per_group:
                for component in work.components:
                    state.kernels.append(emit_component_kernel(
                        state.graph, work.scope, component))
                continue
            launch_cfg = configure_launch(state.spec,
                                          work.launch.block_size,
                                          work.plan.smem_per_block)
            kernel = emit_stitch_kernel(state.graph, work.scope,
                                        work.analysis, work.launch,
                                        work.plan, launch_cfg)
            barriers += kernel.num_global_barriers
            state.kernels.append(kernel)
        return {"kernels": len(state.kernels), "barriers": barriers}


def adaptive_mapping_factory(state: CompileState) -> MappingFn:
    """The Sec 3.3 adaptive thread-mapping rule for ``state``'s device."""
    spec = state.spec

    def adaptive_mapping_for(root: Node) -> ThreadMapping:
        if root.kind is OpKind.REDUCE:
            rows, width = mappings.reduce_geometry(
                root.operands[0].shape, root.reduce_axes)
            if root.is_row_reduce():
                return mappings.adaptive_row_reduce(rows, width, spec)
            return mappings.adaptive_column_reduce(rows, width, spec)
        return mappings.adaptive_elementwise(
            max(1, root.num_elements), spec)

    return adaptive_mapping_for


def stitching_passes(config: AStitchConfig) -> tuple[Pass, ...]:
    """The AStitch formation stages for ``config``, in phase order.

    The ``ATM`` ablation (``exhaustive_stitching=False``) replaces the
    whole stitching sequence with adaptive mappings applied on XLA's
    fusion scopes (Table 4); the tuning phase appears only when the
    search actually applies.
    """
    if not config.exhaustive_stitching:
        return (FusionKernelFormationPass(
            "adaptive-thread-mapping", xla_fusion_roots,
            adaptive_mapping_factory, "adaptive"),)
    passes: list[Pass] = [
        StitchScopeIdentificationPass(config),
        DominantAnalysisPass(config),
        SchedulePropagationPass(config),
    ]
    if config.tuning_enabled:
        passes.append(LaunchTuningPass(config))
    passes.extend([
        BlockLocalityPass(config),
        MemoryPlanningPass(config),
        StitchCodegenPass(config),
    ])
    return tuple(passes)
