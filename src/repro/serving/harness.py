"""Load-test harness: one-call runs and sustainable-QPS search.

Two entry points tie the serving layer together for the CLI, the
benchmarks and CI:

* :func:`run_loadtest` — generate a seeded open-loop arrival stream,
  serve it on a fresh fleet, and return the result plus its metrics
  report;
* :func:`max_sustainable_qps` — the capacity number operators actually
  provision by: the highest offered QPS at which the p99 latency still
  meets the SLO (found by doubling then bisecting, every trial fully
  deterministic).

Comparing ``max_sustainable_qps`` across compilers turns the paper's
per-iteration speedups into an end-to-end serving claim: a fleet whose
kernels finish in half the time sustains roughly twice the load before
its tail latency explodes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import Optional, Union

from repro.compilers.base import Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.serving.batcher import DynamicBatcher, bucket_sizes
from repro.serving.cluster import Cluster, ServingResult
from repro.serving.loadgen import mixed_arrivals, poisson_arrivals
from repro.serving.metrics import ServingReport, report
from repro.serving.queue import AdmissionQueue
from repro.serving.worker import ServiceTimeOracle, make_fleet


def run_loadtest(workloads: Union[str, Mapping[str, float]],
                 qps: float = 10.0,
                 duration: float = 20.0,
                 compiler: Optional[Compiler] = None,
                 specs: Sequence[GPUSpec] = (V100,),
                 policy: str = "fifo",
                 max_batch: int = 8,
                 max_wait: float = 0.005,
                 slo: float = 0.5,
                 seed: int = 0,
                 max_depth: Optional[int] = None,
                 service=None,
                 oracle: Optional[ServiceTimeOracle] = None,
                 ) -> tuple[ServingResult, ServingReport]:
    """Run one deterministic load test on a fresh fleet.

    Args:
        workloads: A single workload name served at ``qps``, or a
            mapping of workload name -> per-workload QPS.
        qps: Arrival rate for the single-workload form.
        duration: Virtual seconds of offered load.
        compiler: Fleet compiler (AStitch when omitted).
        specs: One GPU spec per worker (mixed fleets allowed).
        policy: Scheduling policy (see :class:`~repro.serving.cluster.
            Cluster`).
        max_batch: Dynamic batcher's largest batch.
        max_wait: Dynamic batcher's hold deadline in seconds.
        slo: Per-request latency objective in seconds.
        seed: Arrival-stream seed.
        max_depth: Optional per-bucket admission cap.
        service: Compile service override (defaults to process-wide).
        oracle: Pre-warmed service-time oracle to reuse across tests
            (must match ``compiler``); one is built when omitted.

    Returns:
        ``(result, report)`` — the raw simulation record and its
        metrics summary.
    """
    if compiler is None:
        from repro.core.compiler import AStitchCompiler
        compiler = AStitchCompiler()
    if oracle is None:
        oracle = ServiceTimeOracle(compiler, service=service)
    if isinstance(workloads, str):
        requests = poisson_arrivals(workloads, qps, duration,
                                    slo=slo, seed=seed)
    else:
        requests = mixed_arrivals(workloads, duration, slo=slo,
                                  seed=seed)
    cluster = Cluster(
        workers=make_fleet(list(specs), oracle),
        batcher=DynamicBatcher(max_batch=max_batch, max_wait=max_wait),
        queue=AdmissionQueue(max_depth=max_depth),
        policy=policy,
    )
    result = cluster.run(requests, offered_duration=duration)
    return result, report(result)


@dataclasses.dataclass
class CapacityPoint:
    """One trial of the sustainable-QPS search.

    Attributes:
        qps: Offered rate of the trial.
        p99: Measured p99 latency in seconds.
        violation_rate: SLO violation fraction.
        sustained: Whether the trial met the acceptance predicate.
    """

    qps: float
    p99: float
    violation_rate: float
    sustained: bool


@dataclasses.dataclass
class CapacityResult:
    """Outcome of :func:`max_sustainable_qps`.

    Attributes:
        workload: Workload searched.
        compiler: Fleet compiler name.
        qps: Highest sustained offered rate found.
        p99_at_qps: p99 latency at that rate, in seconds.
        trials: Every (qps, p99) point probed, in search order.
    """

    workload: str
    compiler: str
    qps: float
    p99_at_qps: float
    trials: list[CapacityPoint]


def max_sustainable_qps(workload: str,
                        compiler: Optional[Compiler] = None,
                        specs: Sequence[GPUSpec] = (V100,),
                        slo: float = 0.5,
                        policy: str = "fifo",
                        max_batch: int = 8,
                        max_wait: float = 0.005,
                        duration: float = 20.0,
                        seed: int = 0,
                        start_qps: float = 1.0,
                        resolution: float = 0.25,
                        relative_resolution: float = 0.05,
                        max_violation_rate: float = 0.01,
                        service=None) -> CapacityResult:
    """Highest offered QPS whose p99 latency still meets the SLO.

    Doubles the offered rate until the fleet buckles (p99 above the
    SLO or more than ``max_violation_rate`` of requests late), then
    bisects until the bracket is narrower than ``resolution`` QPS or
    ``relative_resolution`` of the sustained rate — whichever is larger,
    so a 2000-QPS workload doesn't pay for quarter-QPS precision.  Each
    trial reuses one warmed
    :class:`~repro.serving.worker.ServiceTimeOracle`, so only the first
    pays compilation, and every trial uses the same seed — the search
    is deterministic end to end.
    """
    if compiler is None:
        from repro.core.compiler import AStitchCompiler
        compiler = AStitchCompiler()
    oracle = ServiceTimeOracle(compiler, service=service)
    oracle.warm([workload], bucket_sizes(max_batch), list(specs))
    trials: list[CapacityPoint] = []

    def sustained(qps: float) -> bool:
        _, summary = run_loadtest(
            workload, qps=qps, duration=duration, compiler=compiler,
            specs=specs, policy=policy, max_batch=max_batch,
            max_wait=max_wait, slo=slo, seed=seed, oracle=oracle)
        point = CapacityPoint(
            qps=qps,
            p99=summary.latency.p99,
            violation_rate=summary.slo_violation_rate,
            sustained=(summary.latency.p99 <= slo
                       and summary.slo_violation_rate
                       <= max_violation_rate),
        )
        trials.append(point)
        return point.sustained

    low = 0.0
    high = start_qps
    while sustained(high):
        low = high
        high *= 2
        if high > 1e6:
            break
    while high - low > max(resolution, relative_resolution * low):
        middle = (low + high) / 2
        if sustained(middle):
            low = middle
        else:
            high = middle
    best = max((t for t in trials if t.sustained),
               key=lambda t: t.qps, default=None)
    return CapacityResult(
        workload=workload,
        compiler=compiler.name,
        qps=best.qps if best else 0.0,
        p99_at_qps=best.p99 if best else float("inf"),
        trials=trials,
    )


def serving_benchmark(workloads: Sequence[str],
                      compilers: Optional[Sequence[Compiler]] = None,
                      specs: Sequence[GPUSpec] = (V100, V100),
                      slo: float = 0.5,
                      policy: str = "fifo",
                      max_batch: int = 8,
                      max_wait: float = 0.005,
                      duration: float = 10.0,
                      seed: int = 0,
                      detail_qps: Optional[float] = None,
                      service=None) -> dict:
    """Compiler-vs-compiler serving comparison, as a JSON-ready payload.

    For every workload and compiler this searches the maximum
    sustainable QPS at the fixed p99 SLO (the headline capacity claim),
    and — when ``detail_qps`` is given — additionally records the full
    metrics report of one fixed-rate load test per pair, so the file
    shows *why* the faster compiler sustains more (shorter service
    times, smaller queues, fewer violations under identical load).

    The last listed compiler is compared against the first (the
    baseline): ``capacity[workload]["speedup"]`` is their sustained-QPS
    ratio.  Everything inherits the harness's determinism — same
    arguments, same payload, bit for bit.
    """
    if compilers is None:
        from repro.compilers.xla import XLACompiler
        from repro.core.compiler import AStitchCompiler
        compilers = [XLACompiler(), AStitchCompiler()]
    baseline = compilers[0].name
    subject = compilers[-1].name
    capacity: dict[str, dict] = {}
    loadtests: list[dict] = []
    for workload in workloads:
        per_compiler: dict[str, dict] = {}
        for compiler in compilers:
            found = max_sustainable_qps(
                workload, compiler, specs=specs, slo=slo,
                policy=policy, max_batch=max_batch, max_wait=max_wait,
                duration=duration, seed=seed, service=service)
            per_compiler[compiler.name] = {
                "sustained_qps": found.qps,
                "p99_ms_at_qps": round(found.p99_at_qps * 1e3, 3),
                "trials": len(found.trials),
            }
            if detail_qps is not None:
                _, summary = run_loadtest(
                    workload, qps=detail_qps, duration=duration,
                    compiler=compiler, specs=specs, policy=policy,
                    max_batch=max_batch, max_wait=max_wait, slo=slo,
                    seed=seed, service=service)
                record = summary.as_dict()
                record["workload"] = workload
                loadtests.append(record)
        base_qps = per_compiler[baseline]["sustained_qps"]
        subj_qps = per_compiler[subject]["sustained_qps"]
        per_compiler["speedup"] = (round(subj_qps / base_qps, 3)
                                   if base_qps else float("inf"))
        capacity[workload] = per_compiler
    payload = {
        "bench": "serving_sustained_qps",
        "workers": [spec.name for spec in specs],
        "policy": policy,
        "slo_ms": round(slo * 1e3, 3),
        "max_batch": max_batch,
        "max_wait_ms": round(max_wait * 1e3, 3),
        "duration_s": duration,
        "seed": seed,
        "baseline": baseline,
        "subject": subject,
        "capacity": capacity,
    }
    if loadtests:
        payload["detail_qps"] = detail_qps
        payload["loadtests"] = loadtests
    return payload
