"""Inference requests and their lifecycle timestamps.

A :class:`Request` is one user query against one registered workload.
All times are *virtual seconds* on the cluster's simulated clock — the
serving layer never reads the wall clock, so a load test with a fixed
seed is bit-for-bit reproducible.

Lifecycle::

    arrival --(queued)--> batched --(pending)--> started --> completed
                 |                                   |
                 +-- dropped (admission control) ----+

Latency is ``completed - arrival``; the request violates its SLO when
that exceeds ``slo`` (equivalently, when ``completed > deadline``).
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Optional


@dataclasses.dataclass
class Request:
    """One inference query in flight through the serving simulation.

    Attributes:
        seq: Monotonic id, unique within one load test (ties on equal
            arrival times break deterministically by ``seq``).
        workload: Registered workload name (the shape bucket: only
            requests for the same workload may share a batch).
        arrival: Virtual arrival time in seconds.
        slo: Latency objective in seconds; the deadline is
            ``arrival + slo``.
        batched_at: When the dynamic batcher sealed this request into a
            batch (None while queued).
        started: When a worker began executing its batch.
        completed: When that execution finished.
        dropped: True when admission control rejected the request.
    """

    seq: int
    workload: str
    arrival: float
    slo: float
    batched_at: Optional[float] = None
    started: Optional[float] = None
    completed: Optional[float] = None
    dropped: bool = False

    @property
    def deadline(self) -> float:
        """Absolute virtual time by which the reply is due."""
        return self.arrival + self.slo

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency, or None while incomplete/dropped."""
        if self.completed is None:
            return None
        return self.completed - self.arrival

    @property
    def queueing_delay(self) -> Optional[float]:
        """Seconds spent between arrival and execution start."""
        if self.started is None:
            return None
        return self.started - self.arrival

    @property
    def violated_slo(self) -> bool:
        """True when dropped or completed past the deadline."""
        if self.dropped:
            return True
        if self.completed is None:
            return False
        return self.completed > self.deadline

    def __repr__(self) -> str:
        return (f"Request(#{self.seq} {self.workload} "
                f"t={self.arrival:.4f} slo={self.slo * 1e3:.0f}ms)")


#: Sort key of an arrival stream: arrival time, ties broken by ``seq``.
ARRIVAL_ORDER = operator.attrgetter("arrival", "seq")
