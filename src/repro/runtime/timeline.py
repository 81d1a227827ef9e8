"""Event-driven multi-stream timeline simulation.

The paper explicitly does *not* explore multi-stream execution
(Sec 6.1.2): its iteration time is the serial sum of kernels, library
calls and overhead, and so is :class:`~repro.runtime.engine.Engine`.
This module is the documented extension: a dependency-respecting
list scheduler over a configurable number of CUDA streams, answering
"how much would stream concurrency buy each compiler?"

The model:

* each step's duration/overhead comes from the same cost model as the
  serial engine;
* the host enqueues launches serially (one launch gap per step);
* a step starts once (a) its stream is free, (b) every value it reads
  has been stored, and (c) the host has issued its launch;
* memcpys run on a dedicated copy engine.

Streams share the device, so concurrency trades bandwidth: with ``k``
kernels resident, each runs at ``1/k`` effective bandwidth — modeled by
stretching a step's duration by the overlap it experiences.  (This keeps
the roofline honest: two memory-bound kernels overlap their latencies,
not their DRAM bytes.)
"""

from __future__ import annotations

import dataclasses

from repro.codegen.kernel import MemcpyCall
from repro.compilers.base import CompiledModule
from repro.gpu.spec import GPUSpec, V100
from repro.ir.ops import OpKind
from repro.runtime.engine import Engine


@dataclasses.dataclass
class TimelineEvent:
    """One scheduled step occurrence.

    Attributes:
        name: Step name.
        category: "mem" | "compute" | "memcpy".
        stream: Stream index (-1 for the copy engine).
        start: Seconds from iteration start.
        end: Seconds from iteration start.
    """

    name: str
    category: str
    stream: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class TimelineResult:
    """Outcome of one multi-stream schedule.

    Attributes:
        events: Scheduled events, by start time.
        makespan: Iteration wall time under this schedule.
        num_streams: Compute streams used.
    """

    events: list[TimelineEvent]
    makespan: float
    num_streams: int

    def concurrency_gain(self, serial_time: float) -> float:
        """Speedup of this schedule over the serial engine time."""
        return serial_time / self.makespan if self.makespan else 1.0


def _step_dependencies(module: CompiledModule) -> list[list[int]]:
    """For each step index, the indices of steps it must wait for."""
    producer: dict = {}
    for idx, step in enumerate(module.steps):
        for value in step.outputs:
            producer[value] = idx
    deps: list[list[int]] = []
    for idx, step in enumerate(module.steps):
        wanted = []
        for value in step.inputs:
            if value.kind in (OpKind.PARAMETER, OpKind.CONSTANT):
                continue
            dep = producer.get(value)
            if dep is not None and dep != idx:
                wanted.append(dep)
        deps.append(sorted(set(wanted)))
    return deps


def schedule(module: CompiledModule, num_streams: int = 1,
             spec: GPUSpec = V100,
             bandwidth_sharing: bool = True) -> TimelineResult:
    """List-schedule the module's steps over ``num_streams`` streams.

    Args:
        module: Compiled module to schedule.
        num_streams: Concurrent compute streams (memcpys get their own
            copy engine).
        spec: Target device.
        bandwidth_sharing: Stretch overlapping kernels by their average
            overlap degree (device bandwidth is shared).

    Raises:
        ValueError: If ``num_streams`` < 1.
    """
    if num_streams < 1:
        raise ValueError("need at least one stream")
    engine = Engine(spec)
    _, dispatch = engine.launch_costs(module)
    priced = engine.plan(module).steps
    deps = _step_dependencies(module)

    stream_free = [0.0] * num_streams
    copy_free = 0.0
    host_time = 0.0
    finish = [0.0] * len(module.steps)
    events: list[TimelineEvent] = []

    for idx, (step, profile) in enumerate(zip(module.steps, priced)):
        ready = max((finish[d] for d in deps[idx]), default=0.0)
        if isinstance(step, MemcpyCall):
            start = max(copy_free, ready, host_time)
            end = start + profile.overhead
            copy_free = end
            events.append(TimelineEvent(step.name, "memcpy", -1, start,
                                        end))
            finish[idx] = end
            continue
        host_time += dispatch
        stream = min(range(num_streams), key=lambda s: stream_free[s])
        start = max(stream_free[stream], ready, host_time)
        end = start + profile.duration + max(0.0, profile.overhead
                                             - dispatch)
        stream_free[stream] = end
        events.append(TimelineEvent(step.name, profile.category, stream,
                                    start, end))
        finish[idx] = end

    if bandwidth_sharing and num_streams > 1:
        events, finish_time = _apply_bandwidth_sharing(events)
    else:
        finish_time = max((e.end for e in events), default=0.0)
    events.sort(key=lambda e: e.start)
    return TimelineResult(events=events, makespan=finish_time,
                          num_streams=num_streams)


def _apply_bandwidth_sharing(events: list[TimelineEvent],
                             ) -> tuple[list[TimelineEvent], float]:
    """Stretch each kernel by its average overlap degree.

    A simple one-shot correction (not a fixpoint): for each kernel,
    compute the average number of concurrently running kernels over its
    interval and scale its duration by it; events then re-pack on their
    streams preserving order.
    """
    kernel_events = [e for e in events if e.stream >= 0]
    stretched: dict[int, float] = {}
    for i, event in enumerate(kernel_events):
        if event.duration == 0:
            stretched[i] = 0.0
            continue
        overlap_time = 0.0
        for j, other in enumerate(kernel_events):
            if j == i or other.stream == event.stream:
                continue
            lo = max(event.start, other.start)
            hi = min(event.end, other.end)
            overlap_time += max(0.0, hi - lo)
        degree = 1.0 + overlap_time / event.duration
        stretched[i] = event.duration * min(degree, 4.0)

    # Re-pack per stream, preserving issue order and start lower bounds.
    stream_free: dict[int, float] = {}
    result: list[TimelineEvent] = [e for e in events if e.stream < 0]
    for i, event in enumerate(kernel_events):
        start = max(event.start, stream_free.get(event.stream, 0.0))
        end = start + stretched[i]
        stream_free[event.stream] = end
        result.append(TimelineEvent(event.name, event.category,
                                    event.stream, start, end))
    finish_time = max((e.end for e in result), default=0.0)
    return result, finish_time
