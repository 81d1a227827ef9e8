"""Chrome-trace export of priced profiles.

``profile_to_chrome_trace`` converts a :class:`~repro.runtime.plan.
ExecutionPlan` into the Trace Event Format that ``chrome://tracing`` and
Perfetto load — kernels and library calls on a GPU track, launch/
framework overhead on a host track, memcpys on a copy-engine track.
Timestamps are laid out sequentially (the paper does not explore
multi-stream execution, so one iteration *is* a serial timeline).
"""

from __future__ import annotations

import json
from typing import Any

from repro.runtime.plan import ExecutionPlan

_TRACKS = {"mem": 1, "compute": 1, "memcpy": 2}
_HOST_TRACK = 0


def profile_to_chrome_trace(profile: ExecutionPlan) -> dict[str, Any]:
    """Build a Trace-Event-Format dict for one iteration."""
    events = []
    cursor_us = 0.0
    for step in profile.steps:
        overhead_us = step.overhead * 1e6
        duration_us = step.duration * 1e6
        if overhead_us > 0:
            events.append({
                "name": f"dispatch {step.name}",
                "cat": "overhead",
                "ph": "X",
                "ts": cursor_us,
                "dur": overhead_us,
                "pid": 0,
                "tid": _HOST_TRACK,
            })
            cursor_us += overhead_us
        if duration_us > 0:
            event = {
                "name": step.name,
                "cat": step.category,
                "ph": "X",
                "ts": cursor_us,
                "dur": duration_us,
                "pid": 0,
                "tid": _TRACKS[step.category],
            }
            if step.counters is not None:
                event["args"] = {
                    "achieved_occupancy":
                        round(step.counters.achieved_occupancy, 3),
                    "sm_efficiency":
                        round(step.counters.sm_efficiency, 3),
                    "dram_read_transactions":
                        step.counters.dram_read_transactions,
                    "dram_write_transactions":
                        step.counters.dram_write_transactions,
                }
            events.append(event)
            cursor_us += duration_us
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "module": profile.module_name,
            "graph": profile.graph_name,
            "total_ms": round(profile.total_time * 1e3, 4),
        },
    }


def write_chrome_trace(profile: ExecutionPlan, path: str) -> None:
    """Serialize the trace to a JSON file loadable by chrome://tracing."""
    with open(path, "w") as handle:
        json.dump(profile_to_chrome_trace(profile), handle, indent=1)


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
        events.append({
            "name": report.pass_name,
            "cat": f"pass:{report.kind}",
            "ph": "X",
            "ts": cursor_us,
            "dur": duration_us,
            "pid": 0,
            "tid": _HOST_TRACK,
            "args": {
                "nodes": f"{report.nodes_before}->{report.nodes_after}",
                "kernels": f"{report.kernels_before}->"
                           f"{report.kernels_after}",
                "steps": f"{report.steps_before}->{report.steps_after}",
                **{f"detail.{k}": v for k, v in report.detail.items()},
            },
        })
        cursor_us += duration_us
    total = sum(report.seconds for report in reports)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "pipeline": pipeline,
            "passes": len(events),
            "compile_ms": round(total * 1e3, 4),
        },
    }


def write_pass_trace(reports, path: str, *, pipeline: str = "") -> None:
    """Serialize a pass-pipeline trace to a chrome://tracing JSON file."""
    with open(path, "w") as handle:
        json.dump(pass_reports_to_chrome_trace(reports,
                                               pipeline=pipeline),
                  handle, indent=1)


def timeline_to_chrome_trace(result) -> dict[str, Any]:
    """Trace a multi-stream :class:`~repro.runtime.timeline.
    TimelineResult` with one track per stream (copy engine on its own)."""
    events = []
    for event in result.events:
        events.append({
            "name": event.name,
            "cat": event.category,
            "ph": "X",
            "ts": event.start * 1e6,
            "dur": max(0.0, event.duration * 1e6),
            "pid": 0,
            "tid": event.stream + 1,  # copy engine (-1) lands on tid 0
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "num_streams": result.num_streams,
            "makespan_ms": round(result.makespan * 1e3, 4),
        },
    }
