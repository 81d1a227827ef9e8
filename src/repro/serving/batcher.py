"""Dynamic batching with size buckets and a max-wait deadline.

The batcher trades latency for throughput the way production inference
servers do: it holds arriving requests briefly so compatible ones can
share one GPU execution.  Two knobs bound the trade:

* ``max_batch`` — the largest batch worth forming (beyond it the priced
  step time grows roughly linearly and batching stops paying);
* ``max_wait`` — the longest the *oldest* queued request may be held
  before it is sent with whatever company it has.

Batch sizes are quantized to power-of-two buckets so the fleet only ever
executes a small set of graph shapes.  Each bucket's graph is rebuilt
through the workload registry's ``batched`` factory and compiled through
the shared compile service, so the per-bucket compilation is paid once
per (workload, bucket, compiler, device) — the serving-time payoff of
the content-addressed compile cache.  A partially filled bucket still
executes at the bucket's priced cost (the padding is wasted work, and
the batch-size histogram makes that waste visible).
"""

from __future__ import annotations

import dataclasses

from repro.serving.queue import AdmissionQueue
from repro.serving.request import Request


def bucket_sizes(max_batch: int) -> list[int]:
    """Power-of-two bucket ladder up to and including ``max_batch``."""
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    sizes = []
    size = 1
    while size < max_batch:
        sizes.append(size)
        size *= 2
    sizes.append(max_batch)
    return sizes


def bucket_for(count: int, max_batch: int) -> int:
    """Smallest bucket of :func:`bucket_sizes` that holds ``count``
    requests (``max_batch`` for any larger count)."""
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    return min(max_batch, 1 << max(count - 1, 0).bit_length())


@dataclasses.dataclass
class Batch:
    """A sealed group of requests bound for one GPU execution.

    Attributes:
        uid: Monotonic batch id within one load test.
        workload: Workload every member shares.
        requests: The member requests (at most ``bucket``).
        bucket: Padded batch size the graph is built and priced at.
        formed_at: Virtual time the batcher sealed the batch.
    """

    uid: int
    workload: str
    requests: list[Request]
    bucket: int
    formed_at: float

    @property
    def size(self) -> int:
        """Actual (un-padded) request count."""
        return len(self.requests)

    @property
    def earliest_deadline(self) -> float:
        """Tightest member deadline (EDF scheduling key)."""
        return min(request.deadline for request in self.requests)

    @property
    def oldest_arrival(self) -> float:
        """Earliest member arrival (FIFO scheduling key)."""
        return min(request.arrival for request in self.requests)

    def __repr__(self) -> str:
        return (f"Batch(#{self.uid} {self.workload} "
                f"{self.size}/{self.bucket} @{self.formed_at:.4f})")


class DynamicBatcher:
    """Forms batches from an admission queue under two knobs.

    Args:
        max_batch: Largest batch to form (bucket ladder ceiling).
        max_wait: Seconds the oldest queued request may wait before a
            partial batch is forced out.  ``0`` disables batching
            delay entirely (every request ships alone unless a full
            batch is already waiting).
    """

    def __init__(self, max_batch: int = 8, max_wait: float = 0.005):
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.formed = 0

    def try_form(self, queue: AdmissionQueue, workload: str,
                 now: float) -> Batch | None:
        """Seal a batch if the bucket is full or its head has expired.

        A full bucket (``>= max_batch`` queued) forms immediately; an
        underfull one forms only when the oldest request has waited
        ``max_wait``.  Returns None when neither holds.
        """
        bucket = queue.bucket(workload)
        if not bucket or (len(bucket) < self.max_batch
                          and now < bucket[0].arrival + self.max_wait):
            return None
        requests = queue.take(workload, self.max_batch)
        for request in requests:
            request.batched_at = now
        self.formed += 1
        return Batch(
            uid=self.formed,
            workload=workload,
            requests=requests,
            bucket=bucket_for(len(requests), self.max_batch),
            formed_at=now,
        )

    def __repr__(self) -> str:
        return (f"DynamicBatcher(max_batch={self.max_batch}, "
                f"max_wait={self.max_wait * 1e3:.1f}ms, "
                f"formed={self.formed})")
