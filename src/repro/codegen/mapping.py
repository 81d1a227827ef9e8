"""Thread-mapping constructors.

Two families:

* *naive* mappings reproduce the fixed strategies of the baselines —
  XLA's block-per-row row-reduce that yields Fig 6's pathologies;
* *adaptive* mappings implement Sec 3.3 — horizontal/vertical task packing
  and task splitting — keeping the grid inside one wave so a global
  barrier stays legal while parallelism stays high.

Every kernel root is mapped in two steps: :func:`root_geometry` reads
its data pattern and extents, and :func:`naive_mapping` or
:func:`heuristic_mapping` picks that family's constructor for the
pattern.  The baselines map through the first; the ``ATM`` ablation,
the stitched schedule groups and the tuner's candidate #0 through the
second.  Both families take their block ceiling from the device's
``max_threads_per_block``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.codegen.schedule import MappingKind, ThreadMapping
from repro.gpu.spec import GPUSpec
from repro.ir.graph import Node
from repro.ir.ops import OpKind

_DEFAULT_BLOCK = 256
_SPLIT_ROW_THRESHOLD = 1024  # paper: split when a row holds >1024 items


def _round_up_warp(n: int, warp: int = 32) -> int:
    return max(warp, math.ceil(n / warp) * warp)


def _pow2_at_most(n: int) -> int:
    return 1 << max(0, n.bit_length() - 1)


def naive_elementwise(num_elements: int, spec: GPUSpec,
                      block_size: int = _DEFAULT_BLOCK) -> ThreadMapping:
    """One thread per element — what every baseline emits for loops."""
    num_elements = max(1, num_elements)
    block_size = min(block_size, spec.max_threads_per_block)
    grid = math.ceil(num_elements / block_size)
    return ThreadMapping(MappingKind.ELEMENTWISE, grid, block_size)


def naive_row_reduce(rows: int, row_width: int,
                     spec: GPUSpec) -> ThreadMapping:
    """XLA-style row-reduce: one block per row.

    Block size is the row width rounded to a warp, capped at the
    device's largest block (1024 on V100) — exactly the strategy that
    launches 750,000 blocks of 32 threads for ``<750000,32>`` (Fig 6a)
    and 64 blocks of 1024 for ``<64,30000>`` (Fig 6b).
    """
    rows = max(1, rows)
    ceiling = spec.max_threads_per_block
    block = min(ceiling, _round_up_warp(min(row_width, ceiling)))
    return ThreadMapping(MappingKind.ROW_REDUCE, rows, block,
                         rows=rows, row_width=row_width)


def naive_column_reduce(rows: int, row_width: int,
                        spec: GPUSpec) -> ThreadMapping:
    """Baseline column-reduce: blocks tile the input, atomics combine."""
    elements = max(1, rows * row_width)
    block = min(_DEFAULT_BLOCK, spec.max_threads_per_block)
    grid = math.ceil(elements / block)
    return ThreadMapping(MappingKind.COLUMN_REDUCE, grid, block,
                         rows=rows, row_width=row_width)


def _clamp_wave_limit(wave_limit: int | None) -> int | None:
    """Degenerate per-wave caps (0 or negative) must still yield a legal
    launch: treat them as a one-block wave instead of dividing by zero."""
    if wave_limit is None:
        return None
    return max(1, wave_limit)


def adaptive_elementwise(num_elements: int, spec: GPUSpec,
                         block_size: int | None = None,
                         wave_limit: int | None = None) -> ThreadMapping:
    """Element-wise mapping vertically packed to fit one wave.

    Sec 4.5: AStitch prefers the largest legal block size (the device's
    ``max_threads_per_block``, the default) because it minimizes the
    per-wave block count and hence global-barrier cost.  For *small*
    tensors that cannot fill the machine at that block size, the block
    shrinks so the grid still covers every SM — the parallelism-first
    side of adaptive mapping.
    """
    num_elements = max(1, num_elements)
    ceiling = spec.max_threads_per_block
    block_size = max(32, ceiling if block_size is None
                     else min(block_size, ceiling))
    if num_elements < spec.num_sms * block_size:
        per_sm = math.ceil(num_elements / spec.num_sms)
        block_size = max(32, min(block_size,
                                 _pow2_at_most(_round_up_warp(per_sm))))
    wave_limit = _clamp_wave_limit(wave_limit)
    if wave_limit is None:
        wave_limit = spec.blocks_per_wave(block_size)
    raw_grid = math.ceil(num_elements / block_size)
    tasks = max(1, math.ceil(raw_grid / wave_limit))
    grid = math.ceil(raw_grid / tasks)
    return ThreadMapping(MappingKind.ELEMENTWISE, grid, block_size,
                         tasks_per_thread=tasks)


def adaptive_row_reduce(rows: int, row_width: int, spec: GPUSpec,
                        wave_limit: int | None = None) -> ThreadMapping:
    """Sec 3.3 task packing / splitting for row reduction.

    * Wide-but-few rows (``rows < wave`` and ``row_width > 1024``): *task
      splitting* — several blocks cooperate per row with a cross-block
      atomic, raising the block count (fixes Fig 6b).
    * Otherwise: *horizontal packing* — several narrow rows share one
      block of up to the device's largest size (fixes Fig 6a) — and
      *vertical packing* caps the grid at one wave so a global barrier
      stays legal.
    """
    rows = max(1, rows)
    row_width = max(1, row_width)
    ceiling = spec.max_threads_per_block
    wave_limit = _clamp_wave_limit(wave_limit)
    if wave_limit is None:
        wave_limit = spec.blocks_per_wave(ceiling)

    if rows < wave_limit and row_width > _SPLIT_ROW_THRESHOLD:
        max_split = max(1, wave_limit // rows)
        blocks_per_row = min(math.ceil(row_width / ceiling), max_split)
        if blocks_per_row > 1:
            return ThreadMapping(
                MappingKind.ROW_REDUCE,
                grid_size=rows * blocks_per_row,
                block_size=ceiling,
                blocks_per_row=blocks_per_row,
                rows=rows,
                row_width=row_width,
            )

    threads_per_row = min(ceiling,
                          _pow2_at_most(max(32, _round_up_warp(row_width))))
    # Horizontal packing fixes the small-block-size issue, but packing
    # *too* hard on a small tensor would starve SMs — keep at least one
    # block per SM when there are enough rows to do so.
    max_pack = max(1, min(ceiling // threads_per_row, rows))
    rows_per_block = max(1, min(max_pack, math.ceil(rows / spec.num_sms)))
    block_size = threads_per_row * rows_per_block
    raw_grid = math.ceil(rows / rows_per_block)
    tasks = max(1, math.ceil(raw_grid / wave_limit))
    grid = math.ceil(raw_grid / tasks)
    return ThreadMapping(
        MappingKind.ROW_REDUCE,
        grid_size=grid,
        block_size=block_size,
        rows_per_block=rows_per_block,
        tasks_per_thread=tasks,
        rows=rows,
        row_width=row_width,
    )


def adaptive_column_reduce(rows: int, row_width: int, spec: GPUSpec,
                           wave_limit: int | None = None) -> ThreadMapping:
    """Column-reduce capped to one wave; atomics combine partials."""
    elements = max(1, rows * row_width)
    ceiling = spec.max_threads_per_block
    wave_limit = _clamp_wave_limit(wave_limit)
    if wave_limit is None:
        wave_limit = spec.blocks_per_wave(ceiling)
    raw_grid = math.ceil(elements / ceiling)
    grid = min(raw_grid, wave_limit)
    return ThreadMapping(MappingKind.COLUMN_REDUCE, grid, ceiling,
                         rows=rows, row_width=row_width)


def reduce_geometry(in_shape, axes: tuple[int, ...]) -> tuple[int, int]:
    """(rows, row_width) of a reduction: rows are outputs, width is the
    reduction extent per output.

    Degenerate tensors (a zero-length axis, a single element) clamp to a
    ``(1, 1)`` floor so every mapping constructor downstream still emits
    a legal, at-least-one-block launch.
    """
    width = 1
    for axis in axes:
        width *= in_shape.dim(axis)
    width = max(1, width)
    rows = max(1, in_shape.num_elements // width)
    return rows, width


class RootGeometry(NamedTuple):
    """What a mapping rule reads from a kernel root.

    Attributes:
        kind: The root's data pattern.
        rows: Reduction rows (1 for element-wise roots).
        width: Reduction width (1 for element-wise roots).
        elements: Elements the root produces (at least 1).
    """

    kind: MappingKind
    rows: int
    width: int
    elements: int


def root_geometry(root: Node) -> RootGeometry:
    """The data pattern and extents of the kernel rooted at ``root``."""
    if root.kind is OpKind.REDUCE:
        rows, width = reduce_geometry(root.operands[0].shape,
                                      root.reduce_axes)
        kind = (MappingKind.ROW_REDUCE if root.is_row_reduce()
                else MappingKind.COLUMN_REDUCE)
    else:
        kind, rows, width = MappingKind.ELEMENTWISE, 1, 1
    return RootGeometry(kind, rows, width, max(1, root.num_elements))


def naive_mapping(geometry: RootGeometry, spec: GPUSpec) -> ThreadMapping:
    """The baselines' fixed mapping of a root of ``geometry``: it reads
    only the device's block ceiling, never its SM count or waves."""
    kind, rows, width, elements = geometry
    if kind is MappingKind.ROW_REDUCE:
        return naive_row_reduce(rows, width, spec)
    if kind is MappingKind.COLUMN_REDUCE:
        return naive_column_reduce(rows, width, spec)
    return naive_elementwise(elements, spec)


def heuristic_mapping(geometry: RootGeometry, spec: GPUSpec,
                      wave_limit: int | None = None) -> ThreadMapping:
    """The Sec 3.3 one-shot adaptive mapping of a root of ``geometry``.

    Args:
        geometry: The root's :func:`root_geometry`.
        spec: Target device.
        wave_limit: Per-wave block cap (see :func:`barrier_wave_limit`);
            ``None`` leaves each adaptive constructor its own one-wave
            default.
    """
    kind, rows, width, elements = geometry
    if kind is MappingKind.ROW_REDUCE:
        return adaptive_row_reduce(rows, width, spec, wave_limit=wave_limit)
    if kind is MappingKind.COLUMN_REDUCE:
        return adaptive_column_reduce(rows, width, spec,
                                      wave_limit=wave_limit)
    return adaptive_elementwise(elements, spec, wave_limit=wave_limit)


def barrier_wave_limit(spec: GPUSpec, needs_barrier: bool) -> int | None:
    """The per-wave block cap of a stitched kernel's schedule groups.

    A kernel with global barriers must fit one wave (Sec 3.2.3), and
    Sec 4.5 launches it with the device's largest block, so the cap is
    one wave of those blocks; without barriers there is no cap.
    """
    if not needs_barrier:
        return None
    return spec.blocks_per_wave(spec.max_threads_per_block)
