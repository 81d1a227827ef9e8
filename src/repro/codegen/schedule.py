"""Thread-mapping schedules.

A :class:`ThreadMapping` says how a kernel's launch grid covers the data of
its *dominant* operator (Sec 4.3): how many threads cooperate on one
reduction row, how many rows share a block (horizontal packing), how many
blocks split one row (task splitting), and how many tasks each thread
iterates over (vertical packing).
"""

from __future__ import annotations

import dataclasses
import enum


class MappingKind(enum.Enum):
    """Which data pattern the schedule covers."""

    ELEMENTWISE = "elementwise"
    ROW_REDUCE = "row_reduce"
    COLUMN_REDUCE = "column_reduce"


@dataclasses.dataclass(frozen=True)
class ThreadMapping:
    """A launch configuration plus its task decomposition.

    Attributes:
        kind: Data pattern this schedule was derived for.
        grid_size: Thread blocks launched.
        block_size: Threads per block.
        rows_per_block: Reduction rows packed into one block
            (horizontal packing; 1 = no packing).
        blocks_per_row: Blocks cooperating on one row via cross-block
            atomics (task splitting; 1 = no splitting).
        tasks_per_thread: Sequential tasks per thread
            (vertical packing; 1 = no packing).
        rows: Total reduction rows (row/column-reduce only).
        row_width: Elements per reduction row (row/column-reduce only).
    """

    kind: MappingKind
    grid_size: int
    block_size: int
    rows_per_block: int = 1
    blocks_per_row: int = 1
    tasks_per_thread: int = 1
    rows: int = 0
    row_width: int = 0

    def __post_init__(self):
        if self.grid_size < 1 or self.block_size < 1:
            raise ValueError(
                f"degenerate launch {self.grid_size}x{self.block_size}")
        if self.rows_per_block > 1 and self.blocks_per_row > 1:
            raise ValueError("cannot both pack and split rows")

    @property
    def threads_per_row(self) -> int:
        """Threads cooperating on one reduction row."""
        if self.kind is MappingKind.ELEMENTWISE:
            return self.block_size
        return (self.block_size // self.rows_per_block) * self.blocks_per_row

    @property
    def uses_atomics(self) -> bool:
        return self.blocks_per_row > 1

    @property
    def accumulates(self) -> bool:
        """Partials are combined into the output with atomics: a split
        row, or a column reduction's strided partials.  Such an output
        is zeroed first and costs one atomic round."""
        return self.uses_atomics or self.kind is MappingKind.COLUMN_REDUCE

    def sort_key(self) -> tuple:
        """Total deterministic order over mappings.

        The autotuner breaks cost ties with this key (smaller grid, then
        larger block, then least decomposition), so repeated runs —
        across processes and candidate enumeration orders — always pick
        the identical winner.
        """
        return (self.grid_size, -self.block_size, self.blocks_per_row,
                self.rows_per_block, self.tasks_per_thread,
                self.kind.value)

    def output_elements_per_block(self) -> int:
        """Contiguous output elements one block produces.

        This is the quantity the passive block-locality check of Sec 4.3
        compares between a producer's and a consumer's schedules.
        """
        if self.kind is MappingKind.ELEMENTWISE:
            return self.block_size * self.tasks_per_thread
        if self.kind is MappingKind.ROW_REDUCE:
            return self.rows_per_block * self.tasks_per_thread
        # Column-reduce blocks write strided partial outputs.
        return self.block_size

    def describe(self) -> str:
        parts = [f"{self.kind.value} grid={self.grid_size} "
                 f"block={self.block_size}"]
        if self.rows_per_block > 1:
            parts.append(f"rows/block={self.rows_per_block}")
        if self.blocks_per_row > 1:
            parts.append(f"blocks/row={self.blocks_per_row}")
        if self.tasks_per_thread > 1:
            parts.append(f"tasks/thread={self.tasks_per_thread}")
        return " ".join(parts)
