"""Conservation laws of the serving simulation under random traces.

Random arrival streams (ties included: arrivals sit on a 1/64 s grid,
service times and ``max_wait`` on the same grid, so arrivals, timers
and completions meet exactly), random policies, batcher knobs,
admission caps and fleets, served by a stub oracle with fixed
per-bucket times — nothing is compiled.  Every run must conserve
requests, respect causality, never double-book a worker, form legal
batches and sample the queue once per event.  A differential check
replays each run through a reference loop that keeps every event,
arrivals included, in one heap ordered by ``(time, kind, ticket)``.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.gpu.spec import T4, V100
from repro.serving import (
    POLICIES,
    AdmissionQueue,
    Cluster,
    DynamicBatcher,
    Request,
    bucket_sizes,
    make_fleet,
    report,
)

TICK = 1 / 64
WORKLOADS = ("a", "b", "c")


class StubOracle:
    """Fixed service time per (workload, bucket, device)."""

    class compiler:
        name = "stub"

    def __init__(self, ticks: dict):
        self.ticks = ticks

    def service_time(self, workload: str, bucket: int, spec) -> float:
        return self.ticks[workload, bucket, spec.name] * TICK


class CountingBatcher(DynamicBatcher):
    """Counts formation attempts: one per admitted arrival, plus one per
    timer an arrival that formed no batch scheduled."""

    attempts = 0

    def try_form(self, queue, workload, now):
        self.attempts += 1
        return super().try_form(queue, workload, now)


@st.composite
def scenarios(draw):
    max_batch = draw(st.integers(1, 9))
    specs = draw(st.lists(st.sampled_from([V100, T4]), min_size=1,
                          max_size=3))
    ticks = {(workload, bucket, spec.name): draw(st.integers(1, 12))
             for workload in WORKLOADS
             for bucket in bucket_sizes(max_batch)
             for spec in (V100, T4)}
    trace = draw(st.lists(
        st.tuples(st.integers(0, 80), st.sampled_from(WORKLOADS),
                  st.integers(1, 40)),
        max_size=60))
    return dict(
        requests=[Request(seq=seq, workload=workload,
                          arrival=tick * TICK, slo=slo * TICK)
                  for seq, (tick, workload, slo) in enumerate(trace)],
        oracle=StubOracle(ticks),
        specs=specs,
        policy=draw(st.sampled_from(POLICIES)),
        max_batch=max_batch,
        max_wait=draw(st.integers(0, 6)) * TICK,
        max_depth=draw(st.none() | st.integers(1, 6)),
    )


def _serve(scenario, cluster_type=Cluster):
    batcher = CountingBatcher(max_batch=scenario["max_batch"],
                              max_wait=scenario["max_wait"])
    cluster = cluster_type(
        make_fleet(scenario["specs"], scenario["oracle"]), batcher,
        queue=AdmissionQueue(max_depth=scenario["max_depth"]),
        policy=scenario["policy"])
    return cluster, cluster.run(scenario["requests"])


class HeapOnlyCluster(Cluster):
    """Reference event order: arrivals, timers and completions in one
    heap of ``(time, kind, ticket)``; arrivals hold tickets 1..n."""

    def run(self, requests, offered_duration=None):
        heap, ticket = [], 0
        for ticket, request in enumerate(
                sorted(requests, key=lambda r: (r.arrival, r.seq)), 1):
            heap.append((request.arrival, 1, ticket, request))
        pending, executions, samples, backlog = [], [], [], {}
        while heap:
            now, kind, _, payload = heapq.heappop(heap)
            batch = None
            if kind == 1:
                workload = payload.workload
                if self.queue.push(payload, backlog.get(workload, 0)):
                    batch = self.batcher.try_form(self.queue, workload, now)
                    if batch is None:
                        ticket += 1
                        heapq.heappush(heap, (now + self.batcher.max_wait,
                                              2, ticket, workload))
            elif kind == 2:
                batch = self.batcher.try_form(self.queue, payload, now)
            if batch is not None:
                pending.append(batch)
                backlog[batch.workload] = \
                    backlog.get(batch.workload, 0) + batch.size
            while pending:
                worker = self._pick_worker(now)
                if worker is None:
                    break
                batch = self._next_batch(pending)
                backlog[batch.workload] -= batch.size
                executions.append(worker.execute(batch, now))
                ticket += 1
                heapq.heappush(heap, (executions[-1].end, 0, ticket, None))
            samples.append((now, self.queue.depth()))
        return executions, samples


def _fresh(scenario):
    """The scenario with unserved copies of its requests."""
    return dict(scenario, requests=[
        Request(r.seq, r.workload, r.arrival, r.slo)
        for r in scenario["requests"]])


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_serving_conservation_laws(scenario):
    cluster, result = _serve(scenario)
    arrived = len(scenario["requests"])

    # Every arrival ends completed or dropped, never both, never neither.
    summary = report(result)
    assert summary.completed + summary.dropped == arrived
    for request in result.requests:
        assert (request.completed is None) == request.dropped

    # Causality: batched after arrival, started after batching.
    for request in result.requests:
        if request.dropped:
            assert request.batched_at is None
            continue
        assert request.arrival <= request.batched_at <= request.started
        assert request.started < request.completed

    # No worker runs two batches at once.
    for worker in result.workers:
        runs = sorted((e.start, e.end) for e in result.executions
                      if e.worker == worker.uid)
        for (_, end), (start, _) in zip(runs, runs[1:]):
            assert start >= end

    # Legal batches: one workload, at most max_batch requests, padded
    # to the smallest ladder size that holds them.
    ladder = bucket_sizes(scenario["max_batch"])
    for execution in result.executions:
        batch = execution.batch
        assert 1 <= batch.size <= scenario["max_batch"]
        assert {r.workload for r in batch.requests} == {batch.workload}
        assert batch.bucket == min(s for s in ladder if s >= batch.size)
        assert execution.start >= batch.formed_at
    assert sum(e.batch.size for e in result.executions) == \
        summary.completed

    # One queue sample per event: every arrival, every completion and
    # every timer (an admitted arrival that formed no batch schedules
    # one), in time order, never negative, and an empty queue at the end.
    timers = cluster.batcher.attempts - cluster.queue.admitted
    assert len(result.queue_samples) == \
        arrived + len(result.executions) + timers
    times = [time for time, _ in result.queue_samples]
    assert times == sorted(times)
    assert all(depth >= 0 for _, depth in result.queue_samples)
    if result.queue_samples:
        assert result.queue_samples[-1][1] == 0


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_merged_arrivals_keep_the_heap_event_order(scenario):
    _, result = _serve(_fresh(scenario))
    _, (executions, samples) = _serve(_fresh(scenario), HeapOnlyCluster)
    assert result.queue_samples == samples
    assert ([(e.batch.uid, e.worker, e.start, e.end)
             for e in result.executions]
            == [(e.batch.uid, e.worker, e.start, e.end)
                for e in executions])
