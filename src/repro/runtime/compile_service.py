"""Deduplicating compilation service.

The front door to every compilation in this repository.  On top of the
content-addressed :class:`~repro.runtime.compile_cache.CompileCache` it
adds:

* single-flight coalescing — concurrent caller threads requesting the
  same key share one in-flight compilation instead of racing to
  duplicate it;
* ``warmup(workloads, compilers)`` to pre-populate the cache (and, when
  ``REPRO_COMPILE_CACHE_DIR`` is set, the persistent tier) before
  serving traffic.

A request is keyed by (pipeline fingerprint, graph fingerprint, spec),
and a miss runs ``compiler.compile(graph, spec, optimize=...)``.

Compiles run on the calling thread.  JIT cost is paid once per key
(Sec 6.4.1), and the compilers are pure Python, so a worker pool under
the interpreter lock would only add thread hand-offs.

``Session``, ``JitCache`` and ``compare_compilers`` all route through
the process-wide :func:`default_service`, so a workload compiled once —
by anyone — is free for everyone after.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading
import time
from collections.abc import Iterable, Sequence
from typing import Optional, Union

from repro.compilers.base import CompiledModule, Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.graph import Graph
from repro.runtime.compile_cache import CacheKey, CompileCache, default_cache
from repro.store import ProcessDefault


@dataclasses.dataclass
class ServiceStats:
    """Request accounting on top of the cache's own counters.

    Attributes:
        requests: Compile requests made.
        compiled: Requests that ran a compiler (cold path).
        coalesced: Requests that waited on another thread's in-flight
            compilation of the same key (single-flight dedup).
        failed: Compilations that raised.
    """

    requests: int = 0
    compiled: int = 0
    coalesced: int = 0
    failed: int = 0


@dataclasses.dataclass
class WarmupReport:
    """Outcome of one :meth:`CompileService.warmup` sweep.

    Attributes:
        pairs: (graph, compiler) pairs requested.
        compiled: Pairs that compiled cold.
        served_from_cache: Pairs that were already cached.
        failures: ``(graph name, compiler name, error)`` for pairs the
            compiler rejected (e.g. TensorRT on a training graph).
        seconds: Wall-clock time of the sweep.
    """

    pairs: int = 0
    compiled: int = 0
    served_from_cache: int = 0
    failures: list[tuple[str, str, str]] = dataclasses.field(
        default_factory=list)
    seconds: float = 0.0


class CompileService:
    """Shared compilation front-end: cache + single-flight, compiling
    on the calling thread.

    Args:
        cache: Result store; defaults to the process-wide cache.
        max_workers: Accepts only ``0``.  It exists only for the
            ``CompileService(..., max_workers=0)`` calls in
            ``perfbench/suite.py`` and goes once they drop the argument.
    """

    def __init__(self, cache: Optional[CompileCache] = None,
                 max_workers: int = 0):
        if max_workers != 0:
            raise ValueError("CompileService compiles on the calling "
                             f"thread; max_workers must be 0, got "
                             f"{max_workers!r}")
        self.cache = cache if cache is not None else default_cache()
        self.stats = ServiceStats()
        self._inflight: dict[CacheKey, concurrent.futures.Future] = {}
        self._lock = threading.Lock()

    def key_for(self, graph: Graph, compiler: Compiler,
                spec: GPUSpec = V100, optimize: bool = False) -> CacheKey:
        """The cache key a request addresses."""
        return CacheKey(pipeline=compiler.pipeline_fingerprint(optimize),
                        graph=graph_fingerprint(graph), spec=spec)

    def compile(self, graph: Graph, compiler: Compiler,
                spec: GPUSpec = V100, *,
                optimize: bool = False) -> CompiledModule:
        """Compile through the cache on the calling thread.

        A cached result returns at once; a key another thread is already
        compiling waits for that compilation (single-flight); otherwise
        this thread compiles it.  Failed compilations are never cached —
        the exception reaches the compiling caller and every waiter.
        """
        key = self.key_for(graph, compiler, spec, optimize)
        with self._lock:
            self.stats.requests += 1
            module = self.cache.get(key)
            if module is not None:
                return module
            pending = self._inflight.get(key)
            if pending is None:
                self.stats.compiled += 1
                future = self._inflight[key] = concurrent.futures.Future()
            else:
                self.stats.coalesced += 1
        if pending is not None:
            return pending.result()
        try:
            module = compiler.compile(graph, spec, optimize=optimize)
            self.cache.put(key, module)
        except BaseException as error:  # noqa: BLE001 — relayed
            with self._lock:
                del self._inflight[key]
                self.stats.failed += 1
            future.set_exception(error)
            raise
        with self._lock:
            del self._inflight[key]
        future.set_result(module)
        return module

    def warmup(self,
               workloads: Optional[Iterable[Union[str, Graph]]] = None,
               compilers: Optional[Sequence[Compiler]] = None,
               spec: GPUSpec = V100, *, training: bool = False,
               optimize: bool = False) -> WarmupReport:
        """Pre-compile ``workloads`` × ``compilers``.

        Args:
            workloads: Registry names and/or already-built graphs;
                defaults to every registered workload.
            compilers: Strategies to warm; defaults to the Fig 11
                inference line-up (TF, XLA, TensorRT, AStitch).
            spec: Target device.
            training: Build the training variants of named workloads
                (names without one are skipped).
            optimize: Warm the optimized-pipeline variants instead.
        """
        from repro.workloads import registry
        started = time.perf_counter()
        graphs: list[Graph] = []
        report = WarmupReport()
        for item in (workloads if workloads is not None
                     else registry.WORKLOADS):
            if isinstance(item, Graph):
                graphs.append(item)
                continue
            spec_entry = registry.WORKLOADS[item]
            if training:
                if spec_entry.training is None:
                    continue
                graphs.append(spec_entry.training())
            else:
                graphs.append(spec_entry.inference())
        if compilers is None:
            from repro.compilers import (TensorFlowCompiler,
                                         TensorRTCompiler, XLACompiler)
            from repro.core import AStitchCompiler
            compilers = [TensorFlowCompiler(), XLACompiler(),
                         TensorRTCompiler(), AStitchCompiler()]

        dispatched_before = self.stats.compiled
        for graph in graphs:
            for compiler in compilers:
                report.pairs += 1
                try:
                    self.compile(graph, compiler, spec, optimize=optimize)
                except RuntimeError as error:
                    report.failures.append(
                        (graph.name, compiler.name, str(error)))
        dispatched = self.stats.compiled - dispatched_before
        report.compiled = dispatched - len(report.failures)
        report.served_from_cache = report.pairs - dispatched
        report.seconds = time.perf_counter() - started
        return report

    def __repr__(self) -> str:
        return (f"CompileService(requests={self.stats.requests}, "
                f"compiled={self.stats.compiled}, "
                f"coalesced={self.stats.coalesced})")


# -- process-wide default ---------------------------------------------------------

_default = ProcessDefault("service", CompileService)
default_service = _default.get
set_default_service = _default.set
