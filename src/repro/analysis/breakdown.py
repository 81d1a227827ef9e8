"""MEM / OVERHEAD breakdown (Fig 13).

The paper classifies one iteration into memory-intensive kernel time
(MEM), compute-intensive kernel time, and non-computation OVERHEAD, then
plots MEM and OVERHEAD normalized so XLA's MEM+OVERHEAD equals 1.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.plan import ExecutionPlan


@dataclasses.dataclass(frozen=True)
class Breakdown:
    """Normalized MEM/OVERHEAD slice for one compiler on one workload."""

    compiler: str
    mem: float
    overhead: float

    @property
    def total(self) -> float:
        return self.mem + self.overhead


def breakdown_vs_baseline(profiles: dict[str, ExecutionPlan],
                          baseline: str = "XLA") -> list[Breakdown]:
    """Normalize every profile's MEM/OVERHEAD to the baseline's sum.

    Raises:
        KeyError: If the baseline profile is missing.
    """
    scale = (profiles[baseline].mem_time
             + profiles[baseline].overhead_time)
    result = []
    for name, profile in profiles.items():
        result.append(Breakdown(
            compiler=name,
            mem=profile.mem_time / scale,
            overhead=profile.overhead_time / scale,
        ))
    return result
