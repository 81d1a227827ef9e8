"""Serving metrics: tail latency, throughput, SLO attainment, traces.

Distills a :class:`~repro.serving.cluster.ServingResult` into the
numbers an operator tunes against — p50/p95/p99 latency (via the shared
:mod:`repro.analysis.stats` helpers), sustained throughput, SLO
violation rate, batch-size histogram, queue depth and per-worker
utilization — and exports them as JSON or as a Chrome trace built by
:mod:`repro.runtime.trace` (one track per GPU worker and a host track
for queue-depth counters).
"""

from __future__ import annotations

import collections
import dataclasses
import json
from typing import Any

from repro.analysis.stats import Summary, mean, summarize
from repro.runtime.trace import chrome_trace, complete_event
from repro.serving.cluster import ServingResult


@dataclasses.dataclass
class ServingReport:
    """The operator-facing summary of one load test.

    Attributes:
        compiler: Compiler the fleet served with.
        policy: Scheduling policy.
        requests: Generated requests.
        completed: Requests that finished.
        dropped: Requests rejected at admission.
        offered_qps: Generated load (requests / offered duration).
        completed_qps: Sustained throughput (completions / makespan).
        latency: End-to-end latency summary (seconds).
        queueing: Queueing-delay summary (seconds).
        slo_violation_rate: Fraction of requests late or dropped.
        batch_histogram: Actual batch size -> batch count.
        mean_batch_size: Mean actual batch size.
        worker_utilization: Worker id -> busy fraction of the makespan.
        mean_queue_depth: Queue depth averaged over event samples.
        max_queue_depth: Deepest the queue got.
        makespan: Virtual seconds until the last completion.
    """

    compiler: str
    policy: str
    requests: int
    completed: int
    dropped: int
    offered_qps: float
    completed_qps: float
    latency: Summary
    queueing: Summary
    slo_violation_rate: float
    batch_histogram: dict[int, int]
    mean_batch_size: float
    worker_utilization: dict[int, float]
    mean_queue_depth: float
    max_queue_depth: int
    makespan: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dict (latency values in milliseconds)."""
        def ms(summary: Summary) -> dict[str, float]:
            raw = summary.as_dict()
            return {key: (value * 1e3 if key != "count" else value)
                    for key, value in raw.items()}

        return {
            "compiler": self.compiler,
            "policy": self.policy,
            "requests": self.requests,
            "completed": self.completed,
            "dropped": self.dropped,
            "offered_qps": round(self.offered_qps, 3),
            "completed_qps": round(self.completed_qps, 3),
            "latency_ms": ms(self.latency),
            "queueing_ms": ms(self.queueing),
            "slo_violation_rate": round(self.slo_violation_rate, 5),
            "batch_histogram": {str(size): count for size, count
                                in sorted(self.batch_histogram.items())},
            "mean_batch_size": round(self.mean_batch_size, 3),
            "worker_utilization": {str(uid): round(value, 4)
                                   for uid, value
                                   in self.worker_utilization.items()},
            "mean_queue_depth": round(self.mean_queue_depth, 3),
            "max_queue_depth": self.max_queue_depth,
            "makespan_s": round(self.makespan, 4),
        }


def report(result: ServingResult) -> ServingReport:
    """Compute the full metrics report for one load test."""
    latencies, queueing, violations = [], [], 0
    for request in result.requests:
        # Request.latency, queueing_delay and violated_slo, in one pass.
        completed = request.completed
        if completed is None:
            violations += request.dropped
            continue
        arrival = request.arrival
        latencies.append(completed - arrival)
        queueing.append(request.started - arrival)
        violations += request.dropped or completed > arrival + request.slo
    sizes = [len(e.batch.requests) for e in result.executions]
    depths = [depth for _, depth in result.queue_samples]
    horizon = max(result.makespan, result.offered_duration)
    return ServingReport(
        compiler=result.compiler,
        policy=result.policy,
        requests=len(result.requests),
        completed=len(latencies),
        dropped=result.dropped,
        offered_qps=(len(result.requests) / result.offered_duration
                     if result.offered_duration > 0 else 0.0),
        completed_qps=(len(latencies) / result.makespan
                       if result.makespan > 0 else 0.0),
        latency=summarize(latencies),
        queueing=summarize(queueing),
        slo_violation_rate=(violations / len(result.requests)
                            if result.requests else 0.0),
        batch_histogram=dict(collections.Counter(sizes)),
        mean_batch_size=mean(sizes),
        worker_utilization={w.uid: w.utilization(horizon)
                            for w in result.workers},
        mean_queue_depth=mean(depths),
        max_queue_depth=max(depths, default=0),
        makespan=result.makespan,
    )


def render_report(summary: ServingReport) -> str:
    """Human-readable table of one load test's headline numbers."""
    from repro.analysis import render_table
    rows = [
        ["compiler", summary.compiler],
        ["policy", summary.policy],
        ["requests (completed/dropped)",
         f"{summary.requests} ({summary.completed}/{summary.dropped})"],
        ["offered QPS", f"{summary.offered_qps:.1f}"],
        ["sustained QPS", f"{summary.completed_qps:.1f}"],
        ["latency p50/p95/p99 (ms)",
         f"{summary.latency.p50 * 1e3:.1f} / "
         f"{summary.latency.p95 * 1e3:.1f} / "
         f"{summary.latency.p99 * 1e3:.1f}"],
        ["SLO violation rate", f"{summary.slo_violation_rate:.1%}"],
        ["mean batch size", f"{summary.mean_batch_size:.2f}"],
        ["mean/max queue depth",
         f"{summary.mean_queue_depth:.1f} / {summary.max_queue_depth}"],
        ["worker utilization",
         " ".join(f"w{uid}={value:.0%}" for uid, value
                  in summary.worker_utilization.items())],
        ["makespan (virtual s)", f"{summary.makespan:.2f}"],
    ]
    return render_table(["metric", "value"], rows,
                        title="serving load test")


def write_report(summary: ServingReport, path: str) -> None:
    """Serialize the report to a JSON file."""
    with open(path, "w") as handle:
        json.dump(summary.as_dict(), handle, indent=2)
        handle.write("\n")


def serving_to_chrome_trace(result: ServingResult) -> dict[str, Any]:
    """Chrome-trace dict: one track per worker, queue depth as counter.

    Built with the :mod:`repro.runtime.trace` helpers — complete events
    with microsecond timestamps, worker ``w<id>`` tracks from tid 1, the
    admission queue as a counter (``"ph": "C"``) on the host track 0,
    and an ``otherData`` summary block.
    """
    events = []
    for execution in result.executions:
        batch = execution.batch
        events.append(complete_event(
            f"{batch.workload} x{batch.size}(b{batch.bucket})", "batch",
            execution.start * 1e6, max(0.0, execution.duration * 1e6),
            execution.worker + 1, {
                "batch": batch.uid,
                "size": batch.size,
                "bucket": batch.bucket,
                "queued_us": round(
                    (execution.start - batch.formed_at) * 1e6, 1),
            }))
    for time, depth in result.queue_samples:
        events.append({"name": "queue depth", "cat": "queue", "ph": "C",
                       "ts": time * 1e6, "pid": 0, "tid": 0,
                       "args": {"depth": depth}})
    return chrome_trace(
        events, compiler=result.compiler, policy=result.policy,
        workers={f"w{w.uid}": w.spec.name for w in result.workers},
        makespan_ms=round(result.makespan * 1e3, 4))
