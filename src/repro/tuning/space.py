"""Launch-configuration candidate spaces.

The one-shot heuristics of :mod:`repro.codegen.mapping` commit to a
single point in the Sec 3.3 design space (block size, horizontal row
packing, cross-block task splitting, vertical packing).  This module
enumerates the *whole* legal neighbourhood of that point per dominant
kind, so the tuner can let the analytical GPU cost model pick instead
of a rule:

* **elementwise** — block sizes from one warp to the device ceiling,
  crossed with vertical-packing factors (including "none": the
  heuristic's always-pack-to-one-wave choice is often wrong when no
  global barrier caps the grid);
* **row reduce** — threads-per-row × rows-per-block (horizontal
  packing) grids, plus cross-block task splitting at several split
  counts, not only the one-wave-capped split the heuristic emits;
* **column reduce** — block sizes × per-wave grid caps (1, 2, 4 waves,
  uncapped).

Legality: every candidate is a valid :class:`ThreadMapping` (≥ 1 block,
≥ 1 thread, never packing *and* splitting), respects the device
block-size ceiling, and — when the stitched kernel needs a global
barrier — fits one wave at its own block size under the assumed
register bound of Sec 4.5 (the compiler's assume-relax-apply pass and
the final per-wave re-cap keep shared-memory shrinkage safe).

The heuristic mapping is always candidate #0: :func:`candidates` puts
the pipeline's own Sec 3.3 rule
(:func:`~repro.codegen.mapping.heuristic_mapping` under
:func:`~repro.codegen.mapping.barrier_wave_limit`) first, so the tuned
choice can never price worse than the untuned pipeline under the same
model.
"""

from __future__ import annotations

import math

from repro.codegen import mapping as mappings
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.gpu.spec import GPUSpec

# Largest cross-block split per row the search considers (beyond ~32
# cooperating blocks the atomic combine dominates any occupancy gain).
_MAX_SPLIT = 32

# Vertical-packing factors tried besides "fit one wave exactly".
_TASK_FACTORS = (1, 2, 4, 8)

# Grid caps, in waves, tried for column reduction and vertical packing.
_WAVE_CAPS = (1, 2, 4)


def _pow2_range(lo: int, hi: int) -> list[int]:
    """Powers of two in [lo, hi] (empty when hi < lo)."""
    out = []
    value = 1 << max(0, lo - 1).bit_length()
    if value < lo:
        value *= 2
    while value <= hi:
        out.append(value)
        value *= 2
    return out


def _block_sizes(spec: GPUSpec) -> list[int]:
    hi = spec.max_threads_per_block
    return _pow2_range(spec.warp_size, hi) or [min(hi, spec.warp_size)]


class _CandidateSet:
    """Deduplicating, legality-checking candidate collector."""

    def __init__(self, spec: GPUSpec, needs_barrier: bool):
        self.spec = spec
        self.needs_barrier = needs_barrier
        self.mappings: list[ThreadMapping] = []
        self._seen: set[tuple] = set()

    def add(self, mapping: ThreadMapping) -> None:
        if mapping.block_size > self.spec.max_threads_per_block:
            return
        if (self.needs_barrier and mapping.grid_size
                > self.spec.blocks_per_wave(mapping.block_size)):
            return
        key = (mapping.kind, mapping.grid_size, mapping.block_size,
               mapping.rows_per_block, mapping.blocks_per_row,
               mapping.tasks_per_thread)
        if key in self._seen:
            return
        self._seen.add(key)
        self.mappings.append(mapping)


def candidates(geometry: mappings.RootGeometry, spec: GPUSpec,
               needs_barrier: bool) -> list[ThreadMapping]:
    """The legal candidates for a dominant of ``geometry``: the
    pipeline's heuristic mapping first, then the enumerated space of
    its kind."""
    out = _CandidateSet(spec, needs_barrier)
    out.add(mappings.heuristic_mapping(
        geometry, spec, mappings.barrier_wave_limit(spec, needs_barrier)))
    kind, rows, width, elements = geometry
    if kind is MappingKind.ROW_REDUCE:
        _row_reduce_space(out, rows, width)
    elif kind is MappingKind.COLUMN_REDUCE:
        _column_reduce_space(out, rows, width)
    else:
        _elementwise_space(out, elements)
    return out.mappings


def _elementwise_space(out: _CandidateSet, num_elements: int) -> None:
    """Block sizes × vertical-packing factors for element-wise work."""
    spec = out.spec
    n = max(1, num_elements)
    for block in _block_sizes(spec):
        raw_grid = math.ceil(n / block)
        wave = spec.blocks_per_wave(block)
        tasks_options = set(_TASK_FACTORS)
        for cap in _WAVE_CAPS:
            tasks_options.add(math.ceil(raw_grid / (wave * cap)))
        for tasks in sorted(max(1, t) for t in tasks_options):
            grid = max(1, math.ceil(raw_grid / tasks))
            out.add(ThreadMapping(MappingKind.ELEMENTWISE, grid, block,
                                  tasks_per_thread=tasks))


def _row_reduce_space(out: _CandidateSet, rows: int,
                          width: int) -> None:
    """Packing and splitting geometries for row reduction."""
    spec = out.spec
    rows = max(1, rows)
    width = max(1, width)
    blocks = _block_sizes(spec)
    width_ceiling = 1 << max(0, width - 1).bit_length()

    # Horizontal packing: threads_per_row x rows_per_block tilings.
    for threads_per_row in blocks:
        if threads_per_row > max(spec.warp_size, width_ceiling):
            break
        max_pack = blocks[-1] // threads_per_row
        for rows_per_block in _pow2_range(1, max_pack):
            if rows_per_block > 1 and rows_per_block > rows:
                break
            block = threads_per_row * rows_per_block
            raw_grid = math.ceil(rows / rows_per_block)
            wave = spec.blocks_per_wave(block)
            for tasks in sorted({1, math.ceil(raw_grid / wave)}):
                grid = max(1, math.ceil(raw_grid / tasks))
                out.add(ThreadMapping(
                    MappingKind.ROW_REDUCE, grid, block,
                    rows_per_block=rows_per_block,
                    tasks_per_thread=tasks,
                    rows=rows, row_width=width))

    # Task splitting: several blocks cooperate per row via atomics.
    for block in blocks:
        if block >= width:
            continue
        max_split = min(_MAX_SPLIT, math.ceil(width / block))
        for blocks_per_row in _pow2_range(2, max_split):
            out.add(ThreadMapping(
                MappingKind.ROW_REDUCE,
                grid_size=rows * blocks_per_row,
                block_size=block,
                blocks_per_row=blocks_per_row,
                rows=rows, row_width=width))


def _column_reduce_space(out: _CandidateSet, rows: int,
                             width: int) -> None:
    """Block sizes × per-wave grid caps for column reduction."""
    spec = out.spec
    rows = max(1, rows)
    width = max(1, width)
    elements = rows * width
    for block in _block_sizes(spec):
        raw_grid = math.ceil(elements / block)
        wave = spec.blocks_per_wave(block)
        grids = {min(raw_grid, wave * cap) for cap in _WAVE_CAPS}
        grids.add(raw_grid)
        for grid in sorted(grids):
            out.add(ThreadMapping(MappingKind.COLUMN_REDUCE,
                                  max(1, grid), block,
                                  rows=rows, row_width=width))
