"""Per-group thread mapping and schedule propagation (Sec 4.3, step 2).

The final dominant of each group gets an adaptive thread mapping (task
packing / splitting, Sec 3.3); every other node in the group inherits the
schedule by element-wise index propagation (observation A), so nothing
else needs a decision.  The stitched kernel then launches with one
configuration that covers every group — the per-group grids are unified
under the per-wave block cap so the global barrier stays legal.
"""

from __future__ import annotations

import dataclasses

from repro.codegen import mapping as mappings
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.core.dominants import GroupInfo
from repro.gpu.spec import GPUSpec


@dataclasses.dataclass
class UnifiedLaunch:
    """The single launch configuration of a stitched kernel.

    Attributes:
        grid_size: Blocks launched (max over groups, capped at one wave
            when the kernel contains global barriers).
        block_size: Threads per block (max over groups).
        group_mappings: Group id -> the group's logical mapping.
        uses_atomics: Any group's schedule splits rows across blocks.
    """

    grid_size: int
    block_size: int
    group_mappings: dict[int, ThreadMapping]
    uses_atomics: bool

    def as_mapping(self) -> ThreadMapping:
        """Collapse to a single ThreadMapping for kernel costing."""
        kind = MappingKind.ELEMENTWISE
        for group_mapping in self.group_mappings.values():
            if group_mapping.kind is MappingKind.ROW_REDUCE:
                kind = MappingKind.ROW_REDUCE
                break
            if group_mapping.kind is MappingKind.COLUMN_REDUCE:
                kind = MappingKind.COLUMN_REDUCE
        return ThreadMapping(kind, self.grid_size, self.block_size)


def unify_launch(groups: list[GroupInfo], spec: GPUSpec,
                 needs_barrier: bool,
                 overrides: dict[int, ThreadMapping] | None = None,
                 ) -> UnifiedLaunch:
    """Compute one launch configuration covering every group.

    When the kernel will contain global barriers, the grid must not exceed
    one wave (Sec 3.2.3); per-group mappings are built under that cap so
    their work folds into vertical packing rather than extra blocks.

    Args:
        overrides: Group id -> mapping decided elsewhere (the autotuner
            of :mod:`repro.tuning`); groups absent from it get the
            Sec 3.3 :func:`~repro.codegen.mapping.heuristic_mapping` of
            their final dominant.
    """
    wave_limit = mappings.barrier_wave_limit(spec, needs_barrier)

    group_mappings: dict[int, ThreadMapping] = {}
    for group in groups:
        mapping = overrides.get(group.group_id) if overrides else None
        if mapping is None:
            mapping = mappings.heuristic_mapping(
                mappings.root_geometry(group.dominant), spec, wave_limit)
        group_mappings[group.group_id] = mapping

    grid = max(m.grid_size for m in group_mappings.values())
    block = max(m.block_size for m in group_mappings.values())

    # The launch must provision parallelism for the *widest* operator
    # in the kernel, not only the dominants: a 1-row reduce dominant
    # must not strangle the element-wise work propagated onto its
    # schedule.  Vertical packing absorbs the excess when a barrier
    # caps the grid.
    widest = max(node.num_elements
                 for group in groups for node in group.nodes)
    work_mapping = mappings.adaptive_elementwise(
        widest, spec, block_size=block, wave_limit=wave_limit)
    grid = max(grid, work_mapping.grid_size)
    block = max(block, work_mapping.block_size)

    if wave_limit is not None:
        grid = min(grid, wave_limit)
    uses_atomics = any(m.uses_atomics for m in group_mappings.values())
    return UnifiedLaunch(grid, block, group_mappings, uses_atomics)
