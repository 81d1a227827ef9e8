"""BENCH: cold vs. warm compilation through the compile cache.

The paper's JIT overhead (Sec 6.4.1, ~90 s on big graphs) is paid "only
once for all following iterations"; the content-addressed cache extends
that amortization across graph objects, sessions and processes.  This
bench measures real wall-clock: compile the five Table 2 workloads
under the four Fig 11 inference compilers with a cold cache, then again
with a warm one, and record both to ``BENCH_compile_cache.json`` (repo
root and ``benchmarks/results/``) so the perf trajectory is tracked
from this PR onward.

Acceptance bar asserted here: warm is at least 5x faster than cold.
"""

from __future__ import annotations

import time

from repro.compilers import (
    TensorFlowCompiler,
    TensorRTCompiler,
    XLACompiler,
)
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.workloads import WORKLOADS, build

from benchmarks.conftest import record_bench, save_report

SPEEDUP_FLOOR = 5.0


def _sweep(service, graphs, compilers) -> tuple[float, list[dict]]:
    """One serial pass over workloads x compilers; per-pair timings."""
    rows = []
    total = 0.0
    for name, graph in graphs.items():
        for compiler in compilers:
            started = time.perf_counter()
            service.compile(graph, compiler, V100)
            elapsed = time.perf_counter() - started
            total += elapsed
            rows.append({"workload": name, "compiler": compiler.name,
                         "seconds": elapsed})
    return total, rows


def test_bench_compile_cache():
    """Cold-vs-warm compile wall time; asserts the >=5x warm speedup."""
    graphs = {name: build(name) for name in WORKLOADS}
    compilers = [TensorFlowCompiler(), XLACompiler(),
                 TensorRTCompiler(), AStitchCompiler()]
    service = CompileService(cache=CompileCache())

    cold_seconds, cold_rows = _sweep(service, graphs, compilers)
    warm_seconds, warm_rows = _sweep(service, graphs, compilers)
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")

    pairs = []
    for cold, warm in zip(cold_rows, warm_rows):
        pairs.append({"workload": cold["workload"],
                      "compiler": cold["compiler"],
                      "cold_seconds": cold["seconds"],
                      "warm_seconds": warm["seconds"]})
    stats = service.cache.stats
    payload = {
        "bench": "compile_cache_cold_vs_warm",
        "device": "V100",
        "pairs": pairs,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "cache": {"hits": stats.hits, "misses": stats.misses,
                  "evictions": stats.evictions},
    }
    record_bench("compile_cache", payload)

    lines = [f"{'workload':<12} {'compiler':<11} {'cold (ms)':>10} "
             f"{'warm (ms)':>10}"]
    for row in pairs:
        lines.append(f"{row['workload']:<12} {row['compiler']:<11} "
                     f"{row['cold_seconds']*1e3:>10.2f} "
                     f"{row['warm_seconds']*1e3:>10.2f}")
    lines.append(f"total cold {cold_seconds*1e3:.1f} ms, warm "
                 f"{warm_seconds*1e3:.1f} ms -> {speedup:.1f}x")
    save_report("BENCH_compile_cache", "\n".join(lines))

    # Every pair compiled exactly once; the warm pass never compiled.
    assert stats.misses == len(pairs)
    assert stats.hits >= len(pairs)
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm path only {speedup:.1f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)")
