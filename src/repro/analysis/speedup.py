"""Cross-compiler comparison driver (the Fig 11/12 harness core)."""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

from repro.compilers.base import Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.ir.graph import Graph
from repro.runtime.engine import Engine
from repro.runtime.plan import ExecutionPlan


@dataclasses.dataclass
class ComparisonResult:
    """Profiles of one graph under several compilers.

    Attributes:
        graph_name: Workload name.
        profiles: Compiler name -> priced profile.
        baseline: Name of the normalization baseline (TensorFlow in the
            paper's Fig 11).
    """

    graph_name: str
    profiles: dict[str, ExecutionPlan]
    baseline: str = "TensorFlow"

    def time(self, compiler: str) -> float:
        return self.profiles[compiler].total_time

    def speedup(self, compiler: str,
                versus: str | None = None) -> float:
        """Speedup of ``compiler`` relative to ``versus`` (baseline)."""
        reference = versus or self.baseline
        return self.time(reference) / self.time(compiler)


def compare_compilers(graph: Graph, compilers: Sequence[Compiler],
                      spec: GPUSpec = V100,
                      baseline: str = "TensorFlow",
                      service=None) -> ComparisonResult:
    """Compile and price ``graph`` under each compiler.

    Every compilation goes through the compile service (the
    process-wide one unless ``service`` is given), so repeated
    comparisons of structurally identical graphs are cache hits.

    Compilers that reject the workload (e.g. TensorRT on a training
    graph) are skipped, mirroring how the paper's Fig 11b omits TensorRT.
    """
    if service is None:
        from repro.runtime.compile_service import default_service
        service = default_service()
    engine = Engine(spec)
    profiles: dict[str, ExecutionPlan] = {}
    for compiler in compilers:
        try:
            module = service.compile(graph, compiler, spec)
        except RuntimeError:
            continue
        profiles[compiler.name] = engine.run(module)
    return ComparisonResult(graph.name, profiles, baseline=baseline)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper reports average speedups)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
