"""The AStitch compilation phases as discrete pipeline passes (Sec 4).

One pass per paper phase up to phase 4, then one pass for the lowering:

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
5-7. :class:`StitchLoweringPass` — scheme finalization via
   block-locality checking (:mod:`repro.core.locality`), shared-memory
   budgeting with regional->global demotion and global scratch planning
   (:mod:`repro.core.memplan`), resource-aware launch configuration
   (:mod:`repro.core.launch`) and stitch-kernel emission.

The passes communicate through ``state.scratch["astitch"]``: a list of
:class:`ScopeWork` records, one per stitch scope, that accumulate the
per-scope intermediates phase by phase.  Phases 5-7 are one function,
:func:`lower_scope`, composed of plain module functions
(:func:`assign_scope_schemes`, :func:`plan_scope_memory`,
:func:`emit_stitch_kernel`, ...).  It is the only way a scope gets
lowered: the tuning pass compares two of its :class:`ScopeLowering`
records and leaves the cheaper one on the scope, and the lowering pass
emits that record's kernels as they are.

Phases 1 and 2 do not depend on dims, so their results are memoized by
topology fingerprint (:data:`TOPOLOGY_MEMO`): every later batch size of
a workload rebinds them.  Phases 3-7 run once per scope class: phase 2
gives each scope a dims-free class id (:func:`scope_class`), phase 3
keys each scope by its class id plus its dims, and only the first scope
of each key (its representative) is lowered; the lowering pass rebinds
the representative's kernels onto every other scope of the class
(:func:`rebind_kernel`).

:func:`atm_mapping_factory` is the ``ATM`` ablation's mapping rule:
the shared kernel-formation pass applies the Sec 3.3 heuristic on XLA's
fusion scopes, no stitching.
"""

from __future__ import annotations

import dataclasses
from array import array
from itertools import islice
from typing import Any, Optional

from repro.codegen.builder import kernel_cost_inputs, make_kernel
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
from repro.ir.fingerprint import canonical_attr, topology_fingerprint
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
        lowering: The scope lowered under ``launch`` — by phase 4 when
            it compared two launches, else by phases 5-7.
        class_id: Dims-free scope class (phase 2, :func:`scope_class`).
        externals: Operands from outside the scope, in first-use order
            (phase 2).
        representative: The scope whose lowering this one rebinds, or
            ``None`` when it is lowered itself (phase 3).
        rebound: On a representative, how many scopes rebind it.
    """

    scope: StitchScope
    analysis: Optional[ScopeAnalysis] = None
    needs_barrier: bool = False
    launch: Optional[UnifiedLaunch] = None
    lowering: Optional["ScopeLowering"] = None
    class_id: int = 0
    externals: list[Node] = dataclasses.field(default_factory=list)
    representative: Optional["ScopeWork"] = None
    rebound: int = 0


def scope_works(state: CompileState) -> list[ScopeWork]:
    """The AStitch work list a previous pass left in scratch."""
    try:
        return state.scratch[SCRATCH_KEY]
    except KeyError:
        raise KeyError(
            "no AStitch scope work in compile state — did "
            "stitch-scope-id run?") from None


def representatives(state: CompileState) -> list[ScopeWork]:
    """The scopes phases 4-7 lower: one per scope class (phase 3)."""
    return [work for work in scope_works(state)
            if work.representative is None]


# -- lowering steps ------------------------------------------------------------


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
    launch = unify_launch(analysis.groups, spec, needs_barrier)
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


@dataclasses.dataclass(frozen=True)
class ScopeLowering:
    """One scope lowered under one launch (phases 5-7).

    Attributes:
        schemes: Node -> stitching scheme (phase 5).
        per_group: Regional-only fallback: one kernel per schedule-group
            component instead of one stitched kernel.
        kernels: The scope's kernels, in emission order.
    """

    schemes: dict[Node, StitchScheme]
    per_group: bool
    kernels: list[Kernel]


def lower_scope(graph: Graph, scope: StitchScope, spec: GPUSpec,
                analysis: ScopeAnalysis, launch: UnifiedLaunch,
                cfg: AStitchConfig) -> ScopeLowering:
    """Lower one scope under one launch: phases 5-7 composed.

    The only lowering of a scope: the tuning comparator prices its
    kernels, and the lowering pass emits them.
    """
    schemes, per_group = assign_scope_schemes(graph, scope, analysis,
                                              launch, cfg)
    if per_group:
        kernels = [emit_component_kernel(graph, scope, component)
                   for component in component_plans(
                       graph, scope, analysis, launch, schemes, spec)]
    else:
        plan = plan_scope_memory(graph, analysis, launch, schemes, spec)
        launch_cfg = configure_launch(spec, launch.block_size,
                                      plan.smem_per_block)
        kernels = [emit_stitch_kernel(graph, scope, analysis, launch, plan,
                                      launch_cfg)]
    return ScopeLowering(schemes, per_group, kernels)


def rebind_kernel(kernel: Kernel, to: dict[Node, Node], name: str) -> Kernel:
    """``kernel``, lowered on a representative scope, on another scope of
    its class: every node mapped through ``to`` (the representative's
    scope nodes and external operands to the other scope's, by
    position), every other field copied.

    The rebound kernel shares the representative's cost inputs: they
    read dims, kinds and decisions only, all of which the class fixes.
    """
    def mapped(nodes):
        return tuple([to[node] for node in nodes])

    def rekeyed(values):
        return {to[node]: value for node, value in values.items()}

    rebound = dataclasses.replace(
        kernel, name=name, nodes=mapped(kernel.nodes),
        inputs=mapped(kernel.inputs), outputs=mapped(kernel.outputs),
        placements=rekeyed(kernel.placements),
        redundancy=rekeyed(kernel.redundancy),
        input_read_factors=rekeyed(kernel.input_read_factors))
    rebound._cost_inputs = kernel_cost_inputs(kernel)
    return rebound


# -- tuning ----------------------------------------------------------------------


def same_launch(left: UnifiedLaunch, right: UnifiedLaunch) -> bool:
    """Whether two unified launches lower identically."""
    return (left.group_mappings == right.group_mappings
            and left.grid_size == right.grid_size
            and left.block_size == right.block_size)


# -- phases 1-2 per topology -----------------------------------------------------


def scope_class(graph: Graph, scope: StitchScope, analysis: ScopeAnalysis,
                outputs: set[Node]) -> tuple[tuple, list[Node]]:
    """The dims-free class key of one analysed scope, and the scope's
    external operands in first-use order.

    The key holds everything phases 3-7 read from a scope except dims:
    per node in scope order its kind, dtype, rank, attrs, operand refs
    (a scope-local index, or ``-1 - n`` for external operand ``n``) and
    whether it has a user outside the scope, is a graph output and has
    any user; then the node-id order within the scope, the analysis in
    the same refs, and per external operand its dtype, its rank and
    whether it is a scalar CONSTANT.  Two scopes with equal keys and
    equal dims lower to the same kernels, node for node by position.
    All of it is fixed by the topology fingerprint, so the key holds
    for every graph of the topology.
    """
    local = {node: i for i, node in enumerate(scope.nodes)}
    refs = dict(local)
    externals: list[Node] = []
    rows = []
    for node in scope.nodes:
        operands = []
        for operand in node.operands:
            ref = refs.get(operand)
            if ref is None:
                ref = refs[operand] = -1 - len(externals)
                externals.append(operand)
            operands.append(ref)
        users = graph.users(node)
        attrs = node.attrs
        rows.append((
            node.kind, node.dtype.name, node.shape.rank,
            tuple([(key, canonical_attr(attrs[key]))
                   for key in sorted(attrs)]),
            tuple(operands),
            any(user not in local for user in users),
            node in outputs,
            bool(users)))
    order = tuple(sorted(range(len(scope.nodes)),
                         key=lambda i: scope.nodes[i].node_id))
    packed = tuple(ints.tobytes()
                   for ints in pack_analyses([analysis], refs))
    operands = tuple((op.dtype.name, op.shape.rank,
                      op.kind is OpKind.CONSTANT and op.num_elements == 1)
                     for op in externals)
    return (tuple(rows), order, packed, operands), externals


def _pack_sequences(sequences, position: dict[Node, int]) -> array:
    """Node sequences as one flat array: each length, then positions."""
    ints = array("i")
    for nodes in sequences:
        ints.append(len(nodes))
        ints.extend([position[node] for node in nodes])
    return ints


def _unpack_sequences(ints: array, nodes: tuple[Node, ...],
                      ) -> list[list[Node]]:
    """The sequences :func:`_pack_sequences` packed, on ``nodes``."""
    ints, sequences = iter(ints), []
    for length in ints:
        sequences.append([nodes[i] for i in islice(ints, length)])
    return sequences


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
        classes: Each scope's class id (:func:`scope_class`).
        externals: Each scope's external operand count, then their
            positions in first-use order.
    """

    scopes: array
    analyses: tuple[array, array, array]
    guards: array
    classes: array
    externals: array

    @classmethod
    def pack(cls, graph: Graph, works: list[ScopeWork],
             compared: list) -> "TopologyEntry":
        """The entry for ``works`` after phase 2 ran on ``graph``."""
        position = {node: i for i, node in enumerate(graph.nodes)}
        return cls(_pack_sequences([w.scope.nodes for w in works], position),
                   pack_analyses([w.analysis for w in works], position),
                   pack_guards(compared, position),
                   array("i", [w.class_id for w in works]),
                   _pack_sequences([w.externals for w in works], position))

    def stitch_scopes(self, nodes: tuple[Node, ...]) -> list[StitchScope]:
        """The stored scopes on ``nodes`` (a graph's ``nodes``)."""
        return [StitchScope(scope_id, scope_nodes) for scope_id, scope_nodes
                in enumerate(_unpack_sequences(self.scopes, nodes))]

    def rebind(self, works: list[ScopeWork],
               nodes: tuple[Node, ...]) -> None:
        """Phase 2's stored results onto ``works``, on ``nodes``."""
        analyses = unpack_analyses(self.analyses, nodes)
        externals = _unpack_sequences(self.externals, nodes)
        for work, analysis, class_id, operands in zip(
                works, analyses, self.classes, externals):
            work.analysis = analysis
            work.class_id = class_id
            work.externals = operands


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
    and classifies (:func:`scope_class`) every scope and stores the
    entry for the topology.
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
            entry.rebind(works, state.graph.nodes)
        else:
            compared: list = []
            outputs = set(state.graph.outputs)
            classes: dict[tuple, int] = {}
            for work in works:
                work.analysis = analyze_scope(
                    state.graph, work.scope.nodes,
                    dominant_merging=self.config.dominant_merging,
                    compared=compared)
                class_key, work.externals = scope_class(
                    state.graph, work.scope, work.analysis, outputs)
                work.class_id = classes.setdefault(class_key, len(classes))
            if key is not None:
                TOPOLOGY_MEMO.put(key, TopologyEntry.pack(
                    state.graph, works, compared))
        return {"groups": sum(len(w.analysis.groups) for w in works),
                "stages": sum(w.analysis.stages for w in works)}


class SchedulePropagationPass(Pass):
    """Phase 3: adaptive mapping + schedule propagation under one launch
    (Sec 3.3 / 4.4).

    Keys each scope by its class id plus the dims of its nodes and
    external operands; the first scope of each key becomes the
    representative phases 3-7 lower, every other one rebinds it.
    """

    name = "schedule-propagation"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"global={int(self.config.enable_global_scheme)}"

    def run(self, state: CompileState) -> dict[str, Any]:
        barriers = 0
        first: dict[tuple, ScopeWork] = {}
        for work in scope_works(state):
            key = (work.class_id,
                   *[node.shape.dims for node in work.scope.nodes],
                   *[node.shape.dims for node in work.externals])
            representative = first.setdefault(key, work)
            if representative is not work:
                work.representative = representative
                representative.rebound += 1
                barriers += int(representative.needs_barrier)
                continue
            work.needs_barrier, work.launch = propagate_schedule(
                work.analysis, state.spec, self.config)
            barriers += int(work.needs_barrier)
        return {"barrier_scopes": barriers, "scope_classes": len(first)}


class LaunchTuningPass(Pass):
    """Phase 4 (optional): cost-model search over per-group launches.

    The tuner ranks proxy kernels; the final unified launch
    (widest-operator provisioning, memory planning, assume-relax-apply)
    can shift the balance, so a representative whose tuned launch
    differs is lowered both ways (:func:`lower_scope`) and priced under
    the engine's own per-kernel accounting.  The cheaper lowering, the
    tuned one on a tie, stays on the scope for phases 5-7 to emit, so
    tuning never regresses modeled latency, whatever the proxy missed.
    """

    name = "launch-tuning"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def run(self, state: CompileState) -> dict[str, Any]:
        from repro.runtime.engine import Engine
        from repro.tuning import GroupTuner, signature_for_group
        cfg = self.config
        engine = Engine(state.spec)
        works = representatives(state)
        # Every representative's groups are tuned in one sweep.
        sigs = [signature_for_group(group, work.needs_barrier)
                for work in works for group in work.analysis.groups]
        decisions = iter(GroupTuner(state.spec).tune_signatures(sigs))
        tuned_scopes = compared = 0
        for work in works:
            groups = work.analysis.groups
            chosen = list(islice(decisions, len(groups)))
            if all(decision.mapping == decision.heuristic_mapping
                   for decision in chosen):
                # Every group keeps its heuristic: the override
                # unification would reproduce the launch bit for bit.
                continue
            tuned = unify_launch(
                groups, state.spec, work.needs_barrier,
                overrides={group.group_id: decision.mapping
                           for group, decision in zip(groups, chosen)})
            if same_launch(tuned, work.launch):
                # The search confirmed the heuristic: nothing to compare.
                continue
            heuristic = lower_scope(state.graph, work.scope, state.spec,
                                    work.analysis, work.launch, cfg)
            candidate = lower_scope(state.graph, work.scope, state.spec,
                                    work.analysis, tuned, cfg)
            # Its rebound scopes take the representative's lowering.
            scopes = 1 + work.rebound
            compared += scopes
            if engine.variant_time(candidate.kernels) \
                    <= engine.variant_time(heuristic.kernels):
                work.launch, work.lowering = tuned, candidate
                tuned_scopes += scopes
            else:
                work.lowering = heuristic
        return {"tuned_scopes": tuned_scopes, "compared": compared}


class StitchLoweringPass(Pass):
    """Phases 5-7: block-locality checking / scheme finalization
    (Sec 4.2), memory-usage planning (Sec 4.2's hierarchical data
    management: shared-memory budgeting, regional->global demotion,
    global scratch), resource-aware launch configuration (Sec 4.5) and
    stitch-op emission — one kernel per scope, or per component on the
    regional-only fallback.

    Each representative keeps the lowering phase 4 left on it or is
    lowered here (:func:`lower_scope`); its kernels are rebound onto
    the other scopes of its class (:func:`rebind_kernel`).
    """

    name = "stitch-lowering"
    kind = "lower"

    def __init__(self, config: AStitchConfig):
        self.config = config

    def params(self) -> str:
        return f"global={int(self.config.enable_global_scheme)}"

    def run(self, state: CompileState) -> dict[str, Any]:
        counts = {scheme.name.lower(): 0 for scheme in StitchScheme}
        fallbacks = smem = components = barriers = 0
        for work in scope_works(state):
            representative = work.representative
            if representative is None:
                if work.lowering is None:
                    work.lowering = lower_scope(
                        state.graph, work.scope, state.spec, work.analysis,
                        work.launch, self.config)
                lowering = work.lowering
                kernels = lowering.kernels
            else:
                lowering = representative.lowering
                to = dict(zip(representative.scope.nodes, work.scope.nodes))
                to.update(zip(representative.externals, work.externals))
                name = f"stitch_{work.scope.scope_id}"
                kernels = [
                    rebind_kernel(kernel, to, f"{name}_c{index}"
                                  if lowering.per_group else name)
                    for index, kernel in enumerate(lowering.kernels)]
            for scheme in lowering.schemes.values():
                counts[scheme.name.lower()] += 1
            fallbacks += lowering.per_group
            components += len(kernels) if lowering.per_group else 0
            smem += sum(kernel.smem_per_block for kernel in kernels)
            barriers += sum(kernel.num_global_barriers for kernel in kernels)
            state.kernels.extend(kernels)
        return {**counts, "per_group_fallbacks": fallbacks,
                "smem_bytes": smem, "components": components,
                "kernels": len(state.kernels), "barriers": barriers}


def atm_mapping_factory(state: CompileState) -> MappingFn:
    """The Sec 3.3 heuristic mapping rule on ``state``'s device."""
    spec = state.spec
    return lambda root: mappings.heuristic_mapping(
        mappings.root_geometry(root), spec)


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
            atm_mapping_factory, "adaptive"),)
    passes: list[Pass] = [
        StitchScopeIdentificationPass(config),
        DominantAnalysisPass(config),
        SchedulePropagationPass(config),
    ]
    if config.tuning_enabled:
        passes.append(LaunchTuningPass(config))
    passes.append(StitchLoweringPass(config))
    return tuple(passes)
