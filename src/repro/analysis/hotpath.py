"""Hot-path benchmark: cold vs. warm pricing through the plan layer.

PR 1's compile cache amortized *compilation*; the plan layer amortizes
*pricing*.  This module measures both ends of that claim with real wall
clock:

* **plan micro-timings** — price each (workload, bucket) module once
  cold (full vectorized cost-model pass) and once warm (plan-cache
  hit);
* **figure-harness pass** — price every workload under every Fig 11
  inference compiler, cold then warm (the ``compare_compilers`` hot
  loop);
* **end-to-end loadtest** — a 10k-request mixed-workload load test on a
  cold process state (fresh compile cache, fresh plan cache, fresh
  oracle) versus a warm one (fresh oracle, warm caches) — the
  "serve heavy traffic" number;
* **determinism guard** — the cold run starts from empty cost-model
  and occupancy memos (:func:`repro.gpu.clear_caches`), so its metrics
  report, priced from scratch, must be byte-identical to the warm
  replay's.

Used by ``benchmarks/test_bench_hotpath.py`` and the ``repro bench``
CLI subcommand; both write the payload to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence

from repro.gpu import clear_caches
from repro.gpu.spec import V100
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.engine import Engine
from repro.runtime.plan import PlanCache
from repro.serving.batcher import bucket_sizes
from repro.serving.harness import run_loadtest
from repro.serving.worker import ServiceTimeOracle

DEFAULT_WORKLOADS = ("Transformer", "CRNN")


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def run_hotpath_bench(qps: float = 250.0,
                      duration: float = 21.0,
                      workloads: Sequence[str] = DEFAULT_WORKLOADS,
                      max_batch: int = 8,
                      seed: int = 0,
                      specs=(V100, V100)) -> dict:
    """Run the full hot-path benchmark and return the JSON-ready payload.

    Everything runs against *isolated* caches (a fresh
    :class:`CompileCache`/:class:`CompileService` and a fresh
    :class:`PlanCache`), so the measured cold/warm delta is a pure cache
    effect, unaffected by whatever the process priced before.

    Args:
        qps: Per-workload arrival rate of the load test.
        duration: Virtual seconds of offered load.  The defaults offer
            ``qps * duration * len(workloads)`` ≈ 10,500 requests.
        workloads: Workload mix, served at ``qps`` each.
        max_batch: Dynamic batcher's largest batch.
        seed: Arrival-stream seed.
        specs: Fleet device specs.
    """
    from repro.core.compiler import AStitchCompiler
    compiler = AStitchCompiler()
    service = CompileService(cache=CompileCache())
    plan_cache = PlanCache()
    demand = {name: qps for name in workloads}
    buckets = bucket_sizes(max_batch)

    # -- end-to-end loadtest: cold process state vs. warm caches ----------
    def loadtest():
        oracle = ServiceTimeOracle(compiler, service=service,
                                   plan_cache=plan_cache)
        return run_loadtest(demand, duration=duration, specs=specs,
                            max_batch=max_batch, seed=seed,
                            compiler=compiler, oracle=oracle)

    clear_caches()
    cold_seconds, (cold_result, cold_report) = _timed(loadtest)
    warm_seconds, (_, warm_report) = _timed(loadtest)
    loadtest_speedup = (cold_seconds / warm_seconds
                        if warm_seconds else float("inf"))

    # -- determinism guard: from-scratch pricing vs. warm replay ----------
    deterministic = (json.dumps(cold_report.as_dict(), sort_keys=True)
                     == json.dumps(warm_report.as_dict(), sort_keys=True))

    # -- per-module plan micro-timings ------------------------------------
    from repro.workloads import build_cached
    spec = specs[0]
    plan_rows = []
    for name in workloads:
        for bucket in buckets:
            module = service.compile(build_cached(name, batch=bucket),
                                     compiler, spec)
            engine = Engine(spec, plan_cache=PlanCache())
            build_seconds, _ = _timed(lambda: engine.plan(module))
            replay_seconds, _ = _timed(lambda: engine.plan(module))
            plan_rows.append({
                "workload": name, "bucket": bucket,
                "steps": len(module.steps),
                "build_seconds": build_seconds,
                "replay_seconds": replay_seconds,
            })

    # -- figure-harness pass (the compare_compilers hot loop) -------------
    from repro.compilers import (TensorFlowCompiler, TensorRTCompiler,
                                 XLACompiler)
    figure_compilers = [TensorFlowCompiler(), XLACompiler(),
                        TensorRTCompiler(), AStitchCompiler()]
    figure_modules = [
        service.compile(build_cached(name), figure_compiler, spec)
        for name in workloads for figure_compiler in figure_compilers]
    figure_engine = Engine(spec, plan_cache=PlanCache())

    def price_all():
        return [figure_engine.run(m).total_time for m in figure_modules]

    figure_cold, cold_times = _timed(price_all)
    figure_warm, warm_times = _timed(price_all)
    deterministic = deterministic and cold_times == warm_times

    stats = plan_cache.stats
    return {
        "bench": "hotpath_cold_vs_warm",
        "devices": [s.name for s in specs],
        "workloads": list(workloads),
        "qps_per_workload": qps,
        "duration_s": duration,
        "seed": seed,
        "loadtest": {
            "requests": len(cold_result.requests),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": loadtest_speedup,
            "completed": cold_report.as_dict()["completed"],
        },
        "figure_harness": {
            "modules": len(figure_modules),
            "cold_seconds": figure_cold,
            "warm_seconds": figure_warm,
            "speedup": (figure_cold / figure_warm
                        if figure_warm else float("inf")),
        },
        "plans": plan_rows,
        "plan_cache": {
            "hits": stats.hits, "misses": stats.misses,
            "disk_hits": stats.disk_hits, "evictions": stats.evictions,
        },
        "deterministic": deterministic,
    }


def render_hotpath_report(payload: dict) -> str:
    """The human-readable twin of the JSON payload."""
    load = payload["loadtest"]
    figure = payload["figure_harness"]
    lines = [
        f"hot-path bench on {'+'.join(payload['devices'])} "
        f"({', '.join(payload['workloads'])})",
        "",
        f"loadtest: {load['requests']} requests, "
        f"cold {load['cold_seconds']:.3f}s -> warm "
        f"{load['warm_seconds']:.3f}s ({load['speedup']:.1f}x)",
        f"figure harness: {figure['modules']} modules, "
        f"cold {figure['cold_seconds']:.3f}s -> warm "
        f"{figure['warm_seconds']:.3f}s ({figure['speedup']:.1f}x)",
        f"deterministic (cold vs warm): {payload['deterministic']}",
        "",
        f"{'workload':<12} {'bucket':>6} {'steps':>6} "
        f"{'build (ms)':>11} {'replay (ms)':>12}",
    ]
    for row in payload["plans"]:
        lines.append(
            f"{row['workload']:<12} {row['bucket']:>6} {row['steps']:>6} "
            f"{row['build_seconds']*1e3:>11.2f} "
            f"{row['replay_seconds']*1e3:>12.3f}")
    cache = payload["plan_cache"]
    lines.append("")
    lines.append(f"plan cache: {cache['hits']} hits, "
                 f"{cache['misses']} misses, "
                 f"{cache['disk_hits']} disk hits")
    return "\n".join(lines)
