"""Launch-configuration candidate spaces, as integer columns.

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

Candidates are integer rows of a :class:`CandidateColumns` table, each
unique and a valid mapping (≥ 1 block, ≥ 1 thread, never packing *and*
splitting) within the device block-size ceiling that — when the stitched
kernel needs a global barrier — fits one wave at its own block size
under the assumed register bound of Sec 4.5 (the compiler's
assume-relax-apply pass and the final per-wave re-cap keep
shared-memory shrinkage safe).

The heuristic mapping is always row 0: :func:`candidates` puts the
pipeline's own Sec 3.3 rule
(:func:`~repro.codegen.mapping.heuristic_mapping` under
:func:`~repro.codegen.mapping.barrier_wave_limit`) first, so the tuned
choice can never price worse than the untuned pipeline under the same
model.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.codegen import mapping as mappings
from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.gpu.occupancy import occupancy
from repro.gpu.spec import GPUSpec

# Largest cross-block split per row the search considers (beyond ~32
# cooperating blocks the atomic combine dominates any occupancy gain).
_MAX_SPLIT = 32

# Vertical-packing factors tried besides "fit one wave exactly".
_TASK_FACTORS = (1, 2, 4, 8)

# Grid caps, in waves, tried for column reduction and vertical packing.
_WAVE_CAPS = (1, 2, 4)


@dataclasses.dataclass(frozen=True)
class CandidateColumns:
    """The legal candidates of one signature, heuristic first: kind,
    ``ThreadMapping.rows`` and ``row_width`` (0 element-wise) shared by
    every row, and an ``(n, 5)`` ``int64`` table of grid, block,
    rows_per_block, blocks_per_row and tasks."""

    kind: MappingKind
    rows: int
    width: int
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.table)

    def mapping(self, index: int) -> ThreadMapping:
        """Candidate ``index`` as a :class:`ThreadMapping`."""
        grid, block, rows_per_block, blocks_per_row, tasks = \
            self.table[index].tolist()
        return ThreadMapping(self.kind, grid, block,
                             rows_per_block=rows_per_block,
                             blocks_per_row=blocks_per_row,
                             tasks_per_thread=tasks,
                             rows=self.rows, row_width=self.width)


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


def candidates(geometry: mappings.RootGeometry, spec: GPUSpec,
               needs_barrier: bool) -> CandidateColumns:
    """The legal candidates for a dominant of ``geometry``: the
    pipeline's heuristic mapping as row 0, then the enumerated space of
    its kind."""
    heuristic = mappings.heuristic_mapping(
        geometry, spec, mappings.barrier_wave_limit(spec, needs_barrier))
    found: list[tuple] = [(heuristic.grid_size, heuristic.block_size,
                          heuristic.rows_per_block, heuristic.blocks_per_row,
                          heuristic.tasks_per_thread)]
    kind, rows, width, elements = geometry
    blocks = _block_sizes(spec)
    waves = {block: occupancy(spec, block).blocks_per_wave
             for block in blocks}
    if kind is MappingKind.ELEMENTWISE:
        _elementwise_space(found, blocks, waves, elements)
        rows = width = 0
    else:
        rows, width = max(1, rows), max(1, width)
        if kind is MappingKind.ROW_REDUCE:
            _row_reduce_space(found, spec, blocks, waves, rows, width)
        else:
            _column_reduce_space(found, blocks, waves, rows, width)

    ceiling = spec.max_threads_per_block
    legal = [row for row in dict.fromkeys(found)
             if row[1] <= ceiling and not (
                 needs_barrier and row[0] > (
                     waves.get(row[1])
                     or occupancy(spec, row[1]).blocks_per_wave))]
    return CandidateColumns(kind, rows, width,
                            np.array(legal, dtype=np.int64).reshape(-1, 5))


def _elementwise_space(out: list[tuple], blocks: list[int],
                       waves: dict[int, int], num_elements: int) -> None:
    """Block sizes × vertical-packing factors for element-wise work."""
    n = max(1, num_elements)
    for block in blocks:
        raw_grid = math.ceil(n / block)
        wave = waves[block]
        tasks_options = set(_TASK_FACTORS)
        for cap in _WAVE_CAPS:
            tasks_options.add(math.ceil(raw_grid / (wave * cap)))
        for tasks in sorted(max(1, t) for t in tasks_options):
            out.append((max(1, math.ceil(raw_grid / tasks)), block, 1, 1,
                        tasks))


def _row_reduce_space(out: list[tuple], spec: GPUSpec, blocks: list[int],
                      waves: dict[int, int], rows: int, width: int) -> None:
    """Packing and splitting geometries for row reduction."""
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
            for tasks in sorted({1, math.ceil(raw_grid / waves[block])}):
                out.append((max(1, math.ceil(raw_grid / tasks)), block,
                            rows_per_block, 1, tasks))

    # Task splitting: several blocks cooperate per row via atomics.
    for block in blocks:
        if block >= width:
            continue
        max_split = min(_MAX_SPLIT, math.ceil(width / block))
        for blocks_per_row in _pow2_range(2, max_split):
            out.append((rows * blocks_per_row, block, 1, blocks_per_row, 1))


def _column_reduce_space(out: list[tuple], blocks: list[int],
                         waves: dict[int, int], rows: int,
                         width: int) -> None:
    """Block sizes × per-wave grid caps for column reduction."""
    elements = rows * width
    for block in blocks:
        raw_grid = math.ceil(elements / block)
        grids = {min(raw_grid, waves[block] * cap) for cap in _WAVE_CAPS}
        grids.add(raw_grid)
        for grid in sorted(grids):
            out.append((max(1, grid), block, 1, 1, 1))
