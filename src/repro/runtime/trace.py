"""Chrome-trace export: one builder and one writer for every trace.

The Trace Event Format that ``chrome://tracing`` and Perfetto load is
built here once: :func:`complete_event` makes a ``"ph": "X"`` event,
:func:`chrome_trace` wraps events and a summary into the
``traceEvents``/``displayTimeUnit``/``otherData`` envelope, and
:func:`write_chrome_trace` writes any such dict.  The converters only
choose their events and summary fields:

* :func:`profile_to_chrome_trace` — an :class:`~repro.runtime.plan.
  ExecutionPlan`: kernels and library calls on a GPU track, launch/
  framework overhead on a host track, memcpys on a copy-engine track,
  laid out sequentially (the paper does not explore multi-stream
  execution, so one iteration *is* a serial timeline);
* :func:`pass_reports_to_chrome_trace` — one compilation's passes;
* :func:`timeline_to_chrome_trace` — a multi-stream schedule;
* :func:`repro.serving.metrics.serving_to_chrome_trace` — a serving run.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.runtime.plan import ExecutionPlan

_TRACKS = {"mem": 1, "compute": 1, "memcpy": 2}
_HOST_TRACK = 0


def complete_event(name: str, cat: str, ts: float, dur: float, tid: int,
                   args: Optional[dict[str, Any]] = None,
                   ) -> dict[str, Any]:
    """A complete (``"ph": "X"``) event on ``tid`` of process 0;
    timestamps and durations in microseconds."""
    event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "pid": 0, "tid": tid}
    if args is not None:
        event["args"] = args
    return event


def chrome_trace(events: list[dict[str, Any]],
                 **summary: Any) -> dict[str, Any]:
    """The Trace-Event-Format dict of ``events``, with ``summary`` as its
    ``otherData`` block."""
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": summary}


def write_chrome_trace(trace: dict[str, Any], path: str) -> None:
    """Serialize a trace dict to a JSON file loadable by chrome://tracing."""
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1)


def profile_to_chrome_trace(profile: ExecutionPlan) -> dict[str, Any]:
    """Build a Trace-Event-Format dict for one iteration."""
    events = []
    cursor_us = 0.0
    for step in profile.steps:
        overhead_us = step.overhead * 1e6
        duration_us = step.duration * 1e6
        if overhead_us > 0:
            events.append(complete_event(
                f"dispatch {step.name}", "overhead", cursor_us,
                overhead_us, _HOST_TRACK))
            cursor_us += overhead_us
        if duration_us > 0:
            counters = step.counters
            args = None if counters is None else {
                "achieved_occupancy": round(counters.achieved_occupancy, 3),
                "sm_efficiency": round(counters.sm_efficiency, 3),
                "dram_read_transactions": counters.dram_read_transactions,
                "dram_write_transactions": counters.dram_write_transactions,
            }
            events.append(complete_event(
                step.name, step.category, cursor_us, duration_us,
                _TRACKS[step.category], args))
            cursor_us += duration_us
    return chrome_trace(events, module=profile.module_name,
                        graph=profile.graph_name,
                        total_ms=round(profile.total_time * 1e3, 4))


def pass_reports_to_chrome_trace(reports, *,
                                 pipeline: str = "") -> dict[str, Any]:
    """Trace one compilation's pass pipeline on the host track.

    Args:
        reports: :class:`~repro.pipeline.base.PassReport` sequence (from
            ``module.pass_reports`` / ``Session.pass_reports``).
        pipeline: Display name or fingerprint for the trace metadata.

    Passes are laid out sequentially (the manager runs them that way);
    each event carries the pass kind and the IR node / kernel / step
    deltas plus the pass's own counters as args.
    """
    events = []
    cursor_us = 0.0
    for report in reports:
        duration_us = report.seconds * 1e6
        events.append(complete_event(
            report.pass_name, f"pass:{report.kind}", cursor_us,
            duration_us, _HOST_TRACK, {
                "nodes": f"{report.nodes_before}->{report.nodes_after}",
                "kernels": f"{report.kernels_before}->"
                           f"{report.kernels_after}",
                "steps": f"{report.steps_before}->{report.steps_after}",
                **{f"detail.{k}": v for k, v in report.detail.items()},
            }))
        cursor_us += duration_us
    total = sum(report.seconds for report in reports)
    return chrome_trace(events, pipeline=pipeline, passes=len(events),
                        compile_ms=round(total * 1e3, 4))


def timeline_to_chrome_trace(result) -> dict[str, Any]:
    """Trace a multi-stream :class:`~repro.runtime.timeline.
    TimelineResult` with one track per stream (copy engine on its own)."""
    events = [complete_event(event.name, event.category, event.start * 1e6,
                             max(0.0, event.duration * 1e6),
                             event.stream + 1)  # copy engine (-1) -> tid 0
              for event in result.events]
    return chrome_trace(events, num_streams=result.num_streams,
                        makespan_ms=round(result.makespan * 1e3, 4))
