"""Shape-bucketed admission queue.

Dynamic batching can only merge requests whose graphs are structurally
compatible, so admission is bucketed by workload name: every bucket is a
FIFO of requests that *could* share a batch.  The queue also implements
the one piece of overload protection an open-loop simulation needs —
an optional per-bucket depth cap past which requests are dropped at the
door (counted, never silently discarded).
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.serving.request import Request


class AdmissionQueue:
    """Per-workload FIFO buckets with optional admission control.

    Args:
        max_depth: Per-bucket depth cap; arrivals beyond it are marked
            dropped and rejected.  ``None`` (default) admits everything,
            which is the right setting for measuring where a
            configuration falls over.
    """

    def __init__(self, max_depth: Optional[int] = None):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._buckets: dict[str, collections.deque[Request]] = \
            collections.defaultdict(collections.deque)
        self._depth = 0  # total over the buckets, kept by push and take
        self.admitted = 0
        self.dropped = 0

    def push(self, request: Request, extra_depth: int = 0) -> bool:
        """Admit ``request``; False (and ``request.dropped``) if capped.

        Args:
            request: The arriving request.
            extra_depth: Backlog the caller already holds for this
                bucket beyond the queue itself (e.g. requests sealed
                into batches still waiting for a worker) — counted
                against the cap so admission control sees the whole
                system backlog, not just the unbatched head of it.
        """
        bucket = self._buckets[request.workload]
        if (self.max_depth is not None
                and len(bucket) + extra_depth >= self.max_depth):
            request.dropped = True
            self.dropped += 1
            return False
        bucket.append(request)
        self._depth += 1
        self.admitted += 1
        return True

    def depth(self, workload: Optional[str] = None) -> int:
        """Queued requests in one bucket (or across all of them)."""
        if workload is not None:
            return len(self._buckets[workload])
        return self._depth

    def bucket(self, workload: str) -> collections.deque[Request]:
        """The bucket's queued requests, oldest first; dequeue by take."""
        return self._buckets[workload]

    def oldest_arrival(self, workload: str) -> Optional[float]:
        """Arrival time of the bucket's head request (None if empty)."""
        bucket = self._buckets[workload]
        return bucket[0].arrival if bucket else None

    def earliest_deadline(self, workload: str) -> Optional[float]:
        """Tightest deadline among the bucket's queued requests."""
        bucket = self._buckets[workload]
        if not bucket:
            return None
        return min(request.deadline for request in bucket)

    def take(self, workload: str, count: int) -> list[Request]:
        """Dequeue up to ``count`` requests from the bucket, FIFO order."""
        bucket = self._buckets[workload]
        taken = [bucket.popleft() for _ in range(min(count, len(bucket)))]
        self._depth -= len(taken)
        return taken

    def workloads(self) -> list[str]:
        """Bucket names with at least one queued request."""
        return [name for name, bucket in self._buckets.items() if bucket]

    def __len__(self) -> int:
        return self.depth()

    def __repr__(self) -> str:
        depths = {name: len(bucket)
                  for name, bucket in self._buckets.items() if bucket}
        return f"AdmissionQueue(depths={depths}, dropped={self.dropped})"
