"""Tests for Chrome-trace export (runtime/trace.py)."""

import json
import pathlib

import pytest

from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.runtime.engine import Engine
from repro.runtime.timeline import schedule
from repro.runtime.trace import (
    pass_reports_to_chrome_trace,
    profile_to_chrome_trace,
    timeline_to_chrome_trace,
    write_chrome_trace,
)
from repro.serving import run_loadtest, serving_to_chrome_trace
from repro.workloads import micro


def _profile(compiler=None, rows=256, cols=64):
    compiler = compiler or AStitchCompiler()
    module = compiler.compile(micro.softmax_graph(rows, cols))
    return Engine().run(module)


class TestTrackAssignment:
    def test_kernels_and_overhead_split_tracks(self):
        trace = profile_to_chrome_trace(_profile())
        by_cat = {}
        for event in trace["traceEvents"]:
            by_cat.setdefault(event["cat"], set()).add(event["tid"])
        # Host overhead on track 0; GPU work on track 1.
        assert by_cat["overhead"] == {0}
        assert by_cat["mem"] == {1}

    def test_compute_shares_gpu_track_and_memcpy_is_host_only(self):
        # XLA modules carry library calls and memcpys alongside kernels.
        profile = _profile(XLACompiler())
        trace = profile_to_chrome_trace(profile)
        tids = {(e["cat"], e["tid"]) for e in trace["traceEvents"]}
        categories = {cat for cat, _ in tids}
        if "compute" in categories:
            assert ("compute", 1) in tids
        # Memcpys are pure overhead (zero device duration): they show
        # up as dispatch events on the host track, never on track 2.
        assert profile.memcpy_count > 0
        assert "memcpy" not in categories
        dispatch_names = {e["name"] for e in trace["traceEvents"]
                          if e["cat"] == "overhead"}
        memcpy_steps = [s for s in profile.steps
                        if s.category == "memcpy"]
        assert all(f"dispatch {s.name}" in dispatch_names
                   for s in memcpy_steps)

    def test_every_step_is_a_complete_event(self):
        trace = profile_to_chrome_trace(_profile())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])


class TestTimestamps:
    def test_timestamps_are_cumulative_and_non_overlapping(self):
        trace = profile_to_chrome_trace(_profile())
        cursor = 0.0
        for event in trace["traceEvents"]:
            assert event["ts"] >= cursor - 1e-9
            cursor = event["ts"] + event["dur"]

    def test_total_duration_matches_profile(self):
        profile = _profile()
        trace = profile_to_chrome_trace(profile)
        last = trace["traceEvents"][-1]
        end_us = last["ts"] + last["dur"]
        assert abs(end_us - profile.total_time * 1e6) < 1e-3
        assert trace["otherData"]["total_ms"] == \
            round(profile.total_time * 1e3, 4)

    def test_overhead_precedes_its_kernel(self):
        trace = profile_to_chrome_trace(_profile())
        events = trace["traceEvents"]
        for dispatch, kernel in zip(events, events[1:]):
            if dispatch["cat"] == "overhead" and kernel["cat"] == "mem":
                assert kernel["name"] in dispatch["name"]
                assert dispatch["ts"] + dispatch["dur"] <= \
                    kernel["ts"] + 1e-9


class TestCounterArgs:
    def test_counter_args_round_trip_through_json(self):
        profile = _profile()
        trace = profile_to_chrome_trace(profile)
        decoded = json.loads(json.dumps(trace))
        kernel_events = [e for e in decoded["traceEvents"]
                         if e["cat"] == "mem"]
        assert kernel_events
        counters = profile.mem_counters()
        assert len(kernel_events) == len(counters)
        for event, counter in zip(kernel_events, counters):
            args = event["args"]
            assert args["achieved_occupancy"] == \
                round(counter.achieved_occupancy, 3)
            assert args["sm_efficiency"] == \
                round(counter.sm_efficiency, 3)
            assert args["dram_read_transactions"] == \
                counter.dram_read_transactions
            assert args["dram_write_transactions"] == \
                counter.dram_write_transactions

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        profile = _profile()
        path = tmp_path / "trace.json"
        write_chrome_trace(profile_to_chrome_trace(profile), str(path))
        decoded = json.loads(path.read_text())
        assert decoded["displayTimeUnit"] == "ns"
        assert decoded["otherData"]["graph"] == profile.graph_name
        assert len(decoded["traceEvents"]) >= profile.mem_kernel_count


def _plan_trace():
    return profile_to_chrome_trace(_profile())


def _pass_trace():
    run = XLACompiler().run_pipeline(micro.softmax_graph(64, 64), V100)
    return pass_reports_to_chrome_trace(run.reports, pipeline="xla")


def _timeline_trace():
    module = XLACompiler().compile(micro.fig7_subgraph(128, 64))
    return timeline_to_chrome_trace(schedule(module, num_streams=2))


def _serving_trace():
    result, _ = run_loadtest("BERT", qps=40, duration=1, seed=3,
                             specs=[V100, V100])
    return serving_to_chrome_trace(result)


class TestOneWriter:
    @pytest.mark.parametrize("build", [_plan_trace, _pass_trace,
                                       _timeline_trace, _serving_trace],
                             ids=["plan", "passes", "timeline", "serving"])
    def test_writer_round_trips_every_trace(self, build, tmp_path):
        trace = build()
        assert list(trace) == ["traceEvents", "displayTimeUnit",
                               "otherData"]
        assert trace["traceEvents"]
        path = tmp_path / "trace.json"
        write_chrome_trace(trace, str(path))
        assert json.loads(path.read_text()) == trace

    def test_one_envelope_builder_in_src(self):
        import repro
        root = pathlib.Path(repro.__file__).parent
        builders = [str(path.relative_to(root))
                    for path in sorted(root.rglob("*.py"))
                    for _ in range(path.read_text().count(
                        '"displayTimeUnit"'))]
        assert builders == ["runtime/trace.py"]
