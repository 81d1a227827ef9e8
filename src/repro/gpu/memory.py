"""Device memory spaces and a reusing global-memory pool.

Sec 4.4 of the paper: AStitch "reuses previously allocated memory as much
as possible to reduce unnecessary memory allocation requests" and uses
liveness (dominance-tree data-flow) to maximize reuse.  The pool here gives
every compiler the same allocation substrate and reports peak usage plus
how many fresh device allocations were needed, which feeds the CUDA
memcpy/memset accounting of Table 3.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Optional


class MemorySpace(enum.Enum):
    """Where an intermediate tensor lives — the paper's Table 1 column."""

    REGISTER = "register"
    SHARED = "shared"
    GLOBAL = "global"
    NONE = "none"


@dataclasses.dataclass
class Buffer:
    """A device allocation.

    Attributes:
        buffer_id: Unique id within the owning pool.
        space: Memory space of the allocation.
        nbytes: Size in bytes.
        tag: Human-readable owner (node name, "workspace", ...).
    """

    buffer_id: int
    space: MemorySpace
    nbytes: int
    tag: str = ""


class GlobalMemoryPool:
    """First-fit global-memory allocator with free-list reuse."""

    def __init__(self, capacity: int = 16 * 1024 ** 3):
        self.capacity = capacity
        self._ids = itertools.count()
        self._live: dict[int, Buffer] = {}
        self._free: list[Buffer] = []
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self.fresh_allocations = 0
        self.reused_allocations = 0

    def allocate(self, nbytes: int, tag: str = "") -> Buffer:
        """Allocate (or reuse) a global buffer of at least ``nbytes``.

        Raises:
            MemoryError: If the device capacity would be exceeded.
        """
        nbytes = int(nbytes)
        best: Optional[Buffer] = None
        for buf in self._free:
            if buf.nbytes >= nbytes and (best is None
                                         or buf.nbytes < best.nbytes):
                best = buf
        if best is not None:
            self._free.remove(best)
            best.tag = tag
            self._live[best.buffer_id] = best
            self.bytes_in_use += best.nbytes
            self.reused_allocations += 1
        else:
            if self.bytes_in_use + nbytes > self.capacity:
                raise MemoryError(
                    f"device OOM: {self.bytes_in_use + nbytes} B requested, "
                    f"capacity {self.capacity} B")
            best = Buffer(next(self._ids), MemorySpace.GLOBAL, nbytes, tag)
            self._live[best.buffer_id] = best
            self.bytes_in_use += nbytes
            self.fresh_allocations += 1
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        return best

    def release(self, buf: Buffer) -> None:
        """Return a buffer to the free list.

        Raises:
            KeyError: If the buffer is not currently live in this pool.
        """
        live = self._live.pop(buf.buffer_id)
        self.bytes_in_use -= live.nbytes
        self._free.append(live)
