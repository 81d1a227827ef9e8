"""Tensor shapes with row-major layout semantics.

The AStitch paper cares about two layout-sensitive facts:

* whether a reduction runs over the innermost (contiguous) dimension —
  a *row-reduce* — or over an outer dimension — a *column-reduce*;
* how many contiguous elements a producer emits per thread block, which is
  what the block-locality check in Sec 4.3 compares between producer and
  consumer.

``Shape`` is therefore a thin immutable wrapper over a dims tuple with the
index arithmetic both of those need.  Shapes are interned: constructing
one returns the process's single ``Shape`` for its dims, so the nodes of
every graph share a handful of shape objects.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable, Iterator
from typing import Union

from repro.store import register

ShapeLike = Union["Shape", Iterable[int]]

# Dims tuple -> its one live ``Shape``.  Held weakly, so the table is
# only as large as the shapes some graph still uses;
# ``repro.reset_caches`` clears it.
_INTERNED: "weakref.WeakValueDictionary[tuple[int, ...], Shape]" = \
    register("shapes", weakref.WeakValueDictionary())


class Shape:
    """An immutable, row-major tensor shape, one object per dims tuple."""

    __slots__ = ("_dims", "_num_elements", "__weakref__")

    def __new__(cls, dims: Iterable[int]) -> "Shape":
        shape = _INTERNED.get(dims) if type(dims) is tuple else None
        if shape is None:
            dims = tuple(int(d) for d in dims)
            if any(d < 0 for d in dims):
                raise ValueError(f"negative dimension in shape {dims}")
            shape = super().__new__(cls)
            shape._dims = dims
            shape._num_elements = math.prod(dims)
            # ``setdefault``: the first object made for these dims wins.
            shape = _INTERNED.setdefault(dims, shape)
        return shape

    def __reduce__(self):
        return Shape, (self._dims,)

    @staticmethod
    def of(value: ShapeLike) -> "Shape":
        """Coerce a ``Shape`` or an iterable of ints into a ``Shape``."""
        if isinstance(value, Shape):
            return value
        return Shape(value)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def rank(self) -> int:
        return len(self._dims)

    @property
    def num_elements(self) -> int:
        return self._num_elements

    def is_scalar(self) -> bool:
        return self.rank == 0

    def dim(self, axis: int) -> int:
        """Return the extent of ``axis`` (negative axes allowed)."""
        return self._dims[axis]

    def row_major_strides(self) -> tuple[int, ...]:
        """Element strides for a dense row-major layout."""
        strides = [1] * self.rank
        for axis in range(self.rank - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self._dims[axis + 1]
        return tuple(strides)

    def drop_axes(self, axes: Iterable[int]) -> "Shape":
        """Shape with the given axes removed (what a reduce produces)."""
        drop = {a % self.rank for a in axes}
        return Shape(tuple([d for i, d in enumerate(self._dims)
                            if i not in drop]))

    def normalize_axes(self, axes: Iterable[int]) -> tuple[int, ...]:
        """Sort and wrap negative axes; validate they are in range."""
        out = sorted({a % self.rank for a in axes})
        for a in out:
            if not 0 <= a < self.rank:
                raise ValueError(f"axis {a} out of range for rank {self.rank}")
        return tuple(out)

    def innermost_is(self, axes: Iterable[int]) -> bool:
        """True when ``axes`` form a contiguous suffix ending at the last dim.

        A reduce over such axes reads contiguous memory, i.e. it is a
        row-reduce in the paper's terminology.
        """
        norm = self.normalize_axes(axes)
        if not norm:
            return False
        expected = tuple(range(self.rank - len(norm), self.rank))
        return norm == expected

    # -- comparisons / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Shape):
            return self._dims == other._dims
        if isinstance(other, tuple):
            return self._dims == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._dims)

    def __iter__(self) -> Iterator[int]:
        return iter(self._dims)

    def __len__(self) -> int:
        return len(self._dims)

    def __getitem__(self, idx):
        return self._dims[idx]

    def __repr__(self) -> str:
        return f"<{','.join(str(d) for d in self._dims)}>"


def broadcast_result_shape(in_shape: Shape, out_shape: Shape,
                           broadcast_dims: tuple[int, ...]) -> None:
    """Validate an XLA-style broadcast: ``broadcast_dims[i]`` gives the output
    axis that input axis ``i`` maps to.

    Raises:
        ValueError: If the mapping is inconsistent with the two shapes.
    """
    if len(broadcast_dims) != in_shape.rank:
        raise ValueError(
            f"broadcast_dims {broadcast_dims} must have one entry per input "
            f"axis (input rank {in_shape.rank})")
    for in_axis, out_axis in enumerate(broadcast_dims):
        if not 0 <= out_axis < out_shape.rank:
            raise ValueError(f"broadcast dim {out_axis} out of range for "
                             f"output rank {out_shape.rank}")
        if in_shape.dim(in_axis) != out_shape.dim(out_axis):
            raise ValueError(
                f"input axis {in_axis} (={in_shape.dim(in_axis)}) does not "
                f"match output axis {out_axis} (={out_shape.dim(out_axis)})")
