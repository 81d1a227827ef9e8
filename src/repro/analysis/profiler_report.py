"""nvprof-style GPU summary for a profile.

Renders a :class:`~repro.runtime.plan.ExecutionPlan` the way
``nvprof --print-gpu-summary`` would: kernels aggregated by name family,
sorted by total time, with calls / total / average / occupancy columns —
the view the paper's performance-counter analyses start from.
"""

from __future__ import annotations

import re

from repro.analysis.tables import render_table
from repro.runtime.plan import ExecutionPlan

_SUFFIX = re.compile(r"[._]\d+$")


def kernel_family(name: str) -> str:
    """Strip trailing instance counters: ``f_gelu.7`` -> ``f_gelu``."""
    while True:
        stripped = _SUFFIX.sub("", name)
        if stripped == name:
            return name
        name = stripped


def gpu_summary(profile: ExecutionPlan, top: int = 15) -> str:
    """Aggregate kernels by family and render the summary table."""
    families: dict[str, dict] = {}
    for step in profile.steps:
        if step.category not in ("mem", "compute"):
            continue
        family = kernel_family(step.name)
        entry = families.setdefault(family, {
            "calls": 0, "time": 0.0, "occ": 0.0, "category":
            step.category})
        entry["calls"] += 1
        entry["time"] += step.duration
        if step.counters is not None:
            entry["occ"] += (step.counters.achieved_occupancy
                             * step.duration)

    total_time = sum(e["time"] for e in families.values()) or 1.0
    ordered = sorted(families.items(), key=lambda kv: -kv[1]["time"])
    rows = []
    for family, entry in ordered[:top]:
        occupancy = (entry["occ"] / entry["time"]
                     if entry["time"] and entry["category"] == "mem"
                     else None)
        rows.append([
            f"{entry['time'] / total_time:.1%}",
            f"{entry['time'] * 1e6:.1f}",
            entry["calls"],
            f"{entry['time'] / entry['calls'] * 1e6:.1f}",
            f"{occupancy:.2f}" if occupancy is not None else "-",
            family,
        ])
    hidden = len(ordered) - len(rows)
    title = (f"GPU summary: {profile.module_name} on "
             f"{profile.graph_name}"
             + (f" (top {top} of {len(ordered)} kernel families)"
                if hidden > 0 else ""))
    return render_table(
        ["time%", "total (us)", "calls", "avg (us)", "occupancy",
         "kernel"], rows, title=title)
