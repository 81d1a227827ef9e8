"""Simulated inference serving on the analytical GPU model.

The paper motivates AStitch with inference latency on production
workloads; this layer shows what the stitching speedups buy *end to
end*.  It simulates an inference server — open-loop load generation,
a shape-bucketed admission queue, dynamic batching, and a fleet of
simulated GPU workers under SLO-aware scheduling — entirely on a
virtual clock whose step times come from the engine's priced profiles.
Because nothing reads the wall clock, a seeded load test is exactly
reproducible, and compiler choice (AStitch vs. an XLA-like baseline)
shows up where operators feel it: sustainable QPS at a fixed p99 SLO.

Quick tour::

    from repro.serving import run_loadtest, max_sustainable_qps

    result, report = run_loadtest("Transformer", qps=10, duration=20,
                                  specs=[V100, V100], policy="edf")
    print(report.latency.p99, report.completed_qps)

    cap = max_sustainable_qps("CRNN", slo=0.1)
    print(cap.qps)        # highest QPS with p99 under the SLO
"""

from repro.serving.request import Request
from repro.serving.queue import AdmissionQueue
from repro.serving.batcher import (
    Batch,
    DynamicBatcher,
    bucket_for,
    bucket_sizes,
)
from repro.serving.worker import (
    Execution,
    ServiceTimeOracle,
    Worker,
    make_fleet,
)
from repro.serving.cluster import POLICIES, Cluster, ServingResult
from repro.serving.loadgen import (
    arrivals_from_trace,
    mixed_arrivals,
    poisson_arrivals,
    write_trace,
)
from repro.serving.metrics import (
    ServingReport,
    render_report,
    report,
    serving_to_chrome_trace,
    write_report,
)
from repro.serving.harness import (
    CapacityPoint,
    CapacityResult,
    max_sustainable_qps,
    run_loadtest,
    serving_benchmark,
)

__all__ = [
    "Request",
    "AdmissionQueue",
    "Batch",
    "DynamicBatcher",
    "bucket_for",
    "bucket_sizes",
    "Execution",
    "ServiceTimeOracle",
    "Worker",
    "make_fleet",
    "POLICIES",
    "Cluster",
    "ServingResult",
    "arrivals_from_trace",
    "mixed_arrivals",
    "poisson_arrivals",
    "write_trace",
    "ServingReport",
    "render_report",
    "report",
    "serving_to_chrome_trace",
    "write_report",
    "CapacityPoint",
    "CapacityResult",
    "max_sustainable_qps",
    "run_loadtest",
    "serving_benchmark",
]
