"""BENCH: cost-model-guided launch-config autotuning vs the heuristics.

Three acceptance bars, recorded to ``BENCH_autotune.json`` (repo root
and ``benchmarks/results/``):

* **never worse** — on every Table 2 registry workload the tuned
  module's modeled iteration time is <= the heuristic module's;
* **irregular-shape wins** — on the row-reduce shapes the Sec 2.3
  discussion calls out (few long rows, no barrier forcing the grid
  down), the tuner's kernel-time speedup geomean is >= 1.10x;
* **warm compiles stay cheap** — with the tuning cache warm, compiling
  the whole registry with tuning on costs <= 1.2x the untuned
  (heuristic) compile wall time.

Kernel time here is the modeled on-device time minus the h2d/d2h
staging (the staging is fixed by the graph, identical for both
variants, and would drown the launch-config signal the tuner targets).
"""

from __future__ import annotations

import gc
import math
import time

from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.spec import V100
from repro.runtime.engine import Engine
from repro.workloads import WORKLOADS, build, micro

from benchmarks.conftest import record_bench, save_report

# Row-reduce geometries where the one-shot wave-capping rule is wrong
# (plus two where it is right — the geomean is honest, not cherry-picked).
IRREGULAR_SHAPES = [
    (200, 200_000),
    (96, 100_000),
    (64, 30_000),
    (750_000, 32),
]
IRREGULAR_GEOMEAN_FLOOR = 1.10
WARM_COMPILE_CEILING = 1.2
TIMING_REPEATS = 9


def _kernel_time(profile) -> float:
    staging = sum(s.duration + s.overhead for s in profile.steps
                  if s.category == "memcpy")
    return profile.total_time - staging


def _best_of_alternating(first, second,
                         repeats: int = TIMING_REPEATS) -> tuple[float, float]:
    """Best wall time of each of two functions, run in turn within one
    loop so both see the same stretches of machine load.  As in
    ``timeit``, the garbage collector is off while a call is timed, so
    a collection of the other compiles' garbage is charged to neither.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for index, fn in enumerate((first, second)):
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            best[index] = min(best[index], elapsed)
    return best[0], best[1]


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_bench_autotune(fresh_caches):
    engine = Engine(V100)
    tuned_compiler = AStitchCompiler()
    heuristic_compiler = AStitchCompiler(AStitchConfig.heuristic_mappings())

    # -- never worse on the registry --------------------------------
    registry_rows = []
    for name in sorted(WORKLOADS):
        graph = build(name)
        tuned = engine.run(tuned_compiler.compile(graph))
        heuristic = engine.run(heuristic_compiler.compile(graph))
        registry_rows.append({
            "workload": name,
            "heuristic_us": heuristic.total_time * 1e6,
            "tuned_us": tuned.total_time * 1e6,
            "speedup": heuristic.total_time / tuned.total_time,
        })
        assert tuned.total_time <= heuristic.total_time * (1 + 1e-9), \
            f"tuned {name} regressed vs heuristic"

    # -- irregular row-reduce shapes --------------------------------
    irregular_rows = []
    for rows, cols in IRREGULAR_SHAPES:
        graph = micro.row_reduce(rows, cols)
        tuned = _kernel_time(engine.run(tuned_compiler.compile(graph)))
        heuristic = _kernel_time(
            engine.run(heuristic_compiler.compile(graph)))
        irregular_rows.append({
            "shape": f"{rows}x{cols}",
            "heuristic_us": heuristic * 1e6,
            "tuned_us": tuned * 1e6,
            "speedup": heuristic / tuned,
        })
        assert tuned <= heuristic * (1 + 1e-9), \
            f"tuned row_reduce({rows},{cols}) regressed"
    irregular_geomean = _geomean([r["speedup"]
                                  for r in irregular_rows])
    assert irregular_geomean >= IRREGULAR_GEOMEAN_FLOOR, \
        f"irregular geomean {irregular_geomean:.3f} below " \
        f"{IRREGULAR_GEOMEAN_FLOOR}"

    # -- warm-cache compile overhead --------------------------------
    graphs = {name: build(name) for name in sorted(WORKLOADS)}
    compile_rows = []
    heuristic_total = tuned_total = 0.0
    for name, graph in graphs.items():
        tuned_compiler.compile(graph)  # warm the tuning cache
        heuristic_s, warm_s = _best_of_alternating(
            lambda g=graph: heuristic_compiler.compile(g),
            lambda g=graph: tuned_compiler.compile(g))
        heuristic_total += heuristic_s
        tuned_total += warm_s
        compile_rows.append({
            "workload": name,
            "heuristic_compile_s": heuristic_s,
            "warm_tuned_compile_s": warm_s,
            "ratio": warm_s / heuristic_s,
        })
    warm_ratio = tuned_total / heuristic_total
    assert warm_ratio <= WARM_COMPILE_CEILING, \
        f"warm tuned compile {warm_ratio:.2f}x heuristic, " \
        f"ceiling {WARM_COMPILE_CEILING}x"

    payload = {
        "bench": "autotune",
        "registry": registry_rows,
        "irregular": irregular_rows,
        "irregular_geomean": irregular_geomean,
        "compile": compile_rows,
        "warm_compile_ratio": warm_ratio,
    }
    record_bench("autotune", payload, sort_keys=True)

    lines = ["BENCH autotune: tuned vs heuristic launch configs", ""]
    lines.append(f"{'workload':<14} {'heuristic us':>14} {'tuned us':>12} "
                 f"{'speedup':>8}")
    for row in registry_rows:
        lines.append(f"{row['workload']:<14} {row['heuristic_us']:>14.1f} "
                     f"{row['tuned_us']:>12.1f} {row['speedup']:>8.4f}")
    lines.append("")
    lines.append(f"{'row-reduce':<14} {'heuristic us':>14} {'tuned us':>12} "
                 f"{'speedup':>8}")
    for row in irregular_rows:
        lines.append(f"{row['shape']:<14} {row['heuristic_us']:>14.1f} "
                     f"{row['tuned_us']:>12.1f} {row['speedup']:>8.4f}")
    lines.append(f"irregular geomean: {irregular_geomean:.4f} "
                 f"(floor {IRREGULAR_GEOMEAN_FLOOR})")
    lines.append("")
    lines.append(f"warm tuned compile / heuristic compile: "
                 f"{warm_ratio:.3f} (ceiling {WARM_COMPILE_CEILING})")
    save_report("BENCH_autotune", "\n".join(lines))
