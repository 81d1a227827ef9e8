"""Shape-specialized JIT compilation cache.

Production serving feeds the same model ever-changing batch and sequence
sizes.  AStitch's optimizations are shape-dependent (adaptive thread
mapping reads the concrete dims), and its JIT cost — ~90 s on big graphs
(Sec 6.4.1) — is "introduced only once for all following iterations".
This module makes that statement operational, in the spirit of the
authors' DISC follow-up ([59]): a cache of compiled modules keyed by the
input-shape signature, with an optional power-of-two bucketing policy
that trades a little padding for far fewer compilations.

Entries are keyed by the factory object and the bucketed dims, never by
the factory's name: sibling closures share a qualified name but build
different graphs.  Cold compilations are routed through the shared
:class:`~repro.runtime.compile_service.CompileService`, so a shape
bucket compiled by one ``JitCache`` (or a ``Session``, or a benchmark
sweep) is a cache hit for every other one.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.compilers.base import CompiledModule, Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.ir.graph import Graph

GraphFactory = Callable[..., Graph]


def _next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def bucket_dims(dims: Mapping[str, int], policy: str) -> dict[str, int]:
    """Map concrete dimensions onto their compilation bucket.

    Args:
        dims: Named dynamic dimensions (e.g. ``{"batch": 100}``).
        policy: ``"exact"`` (one compilation per distinct shape) or
            ``"pow2"`` (round each dim up to a power of two — inputs pad
            to the bucket, one compilation serves the whole range).

    Raises:
        ValueError: On an unknown policy.
    """
    if policy == "exact":
        return dict(dims)
    if policy == "pow2":
        return {name: _next_pow2(value) for name, value in dims.items()}
    raise ValueError(f"unknown bucketing policy {policy!r}")


@dataclasses.dataclass
class JitStats:
    """Cache behaviour counters.

    Attributes:
        hits: Requests served by an existing compilation.
        misses: Requests that compiled a new module.
        compile_seconds: Total modeled JIT time paid (misses only).
    """

    hits: int = 0
    misses: int = 0
    compile_seconds: float = 0.0


class JitCache:
    """Compile-once-per-shape-bucket execution cache."""

    def __init__(self, compiler: Compiler, spec: GPUSpec = V100,
                 policy: str = "pow2", service=None):
        bucket_dims({}, policy)  # validate the policy eagerly
        if service is None:
            from repro.runtime.compile_service import default_service
            service = default_service()
        self.compiler = compiler
        self.spec = spec
        self.policy = policy
        self.service = service
        self.stats = JitStats()
        self._modules: dict[tuple, CompiledModule] = {}

    def get(self, factory: GraphFactory,
            dims: Mapping[str, int]) -> CompiledModule:
        """Return the compiled module serving ``dims``.

        Args:
            factory: Builds the graph for given named dimensions; called
                with the *bucketed* dims on a cache miss.  Keyed by the
                object itself, so reuse one factory per workload.
            dims: The request's concrete dynamic dimensions.
        """
        bucket = bucket_dims(dims, self.policy)
        key = (factory, tuple(sorted(bucket.items())))
        module = self._modules.get(key)
        if module is None:
            graph = factory(**bucket)
            module = self.service.compile(graph, self.compiler, self.spec)
            self._modules[key] = module
            self.stats.misses += 1
            self.stats.compile_seconds += module.compile_seconds
        else:
            self.stats.hits += 1
        return module

    def padding_waste(self, dims: Mapping[str, int]) -> float:
        """Fractional extra elements the bucket pads relative to the
        request (0.0 for exact policy)."""
        bucket = bucket_dims(dims, self.policy)
        request = 1
        padded = 1
        for name, value in dims.items():
            request *= value
            padded *= bucket[name]
        if request == 0:
            return 0.0
        return padded / request - 1.0

    def __len__(self) -> int:
        return len(self._modules)
