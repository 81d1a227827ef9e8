"""Tests for cluster estimation, chrome-trace export and compile hooks."""

import json

import pytest

from repro.analysis.cluster import (
    ClusterTask,
    FAMILY_WORKLOADS,
    estimate_savings,
    sample_week,
)
from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.runtime import Engine
from repro.runtime.trace import profile_to_chrome_trace, write_chrome_trace
from repro.workloads import micro


class TestClusterEstimation:
    SPEEDUPS = {"Transformer": 3.5, "DIEN": 9.0, "CRNN": 7.0}

    def test_sample_is_deterministic(self):
        a = sample_week(num_tasks=100, seed=5)
        b = sample_week(num_tasks=100, seed=5)
        assert a == b

    def test_distributed_shares_match_paper(self):
        tasks = sample_week(num_tasks=20_000, seed=1)
        estimate = estimate_savings(tasks, self.SPEEDUPS)
        # Paper: ~23% of jobs distributed, consuming ~56% of GPU time.
        assert estimate.distributed_share_tasks == pytest.approx(
            0.23, abs=0.02)
        assert 0.4 < estimate.distributed_share_time < 0.75

    def test_savings_scale_with_speedup(self):
        tasks = sample_week(num_tasks=1000, seed=2)
        low = estimate_savings(tasks, {k: 1.1 for k in self.SPEEDUPS})
        high = estimate_savings(tasks, {k: 4.0 for k in self.SPEEDUPS})
        assert high.saved_gpu_hours > low.saved_gpu_hours
        assert high.saved_fraction == pytest.approx(0.75, abs=0.01)

    def test_no_speedup_no_savings(self):
        tasks = [ClusterTask("rnn", 1, 10.0)]
        estimate = estimate_savings(tasks, {"CRNN": 1.0})
        assert estimate.saved_gpu_hours == 0.0

    def test_missing_family_raises(self):
        tasks = [ClusterTask("transformer", 1, 1.0)]
        with pytest.raises(KeyError):
            estimate_savings(tasks, {"CRNN": 2.0})

    def test_family_workloads_registered(self):
        from repro.workloads import WORKLOADS
        for workload in FAMILY_WORKLOADS.values():
            assert workload in WORKLOADS


class TestChromeTrace:
    def _profile(self):
        module = AStitchCompiler().compile(micro.fig7_subgraph(256, 128))
        return Engine().run(module)

    def test_events_cover_all_steps(self):
        profile = self._profile()
        trace = profile_to_chrome_trace(profile)
        names = [e["name"] for e in trace["traceEvents"]]
        for step in profile.steps:
            if step.duration > 0:
                assert step.name in names

    def test_timestamps_monotone_nonoverlapping(self):
        trace = profile_to_chrome_trace(self._profile())
        end = 0.0
        for event in trace["traceEvents"]:
            assert event["ts"] >= end - 1e-9
            end = event["ts"] + event["dur"]

    def test_total_duration_matches_profile(self):
        profile = self._profile()
        trace = profile_to_chrome_trace(profile)
        total_us = sum(e["dur"] for e in trace["traceEvents"])
        assert total_us == pytest.approx(profile.total_time * 1e6,
                                         rel=1e-6)

    def test_counters_attached_to_kernels(self):
        trace = profile_to_chrome_trace(self._profile())
        kernel_events = [e for e in trace["traceEvents"]
                         if e["cat"] == "mem"]
        assert kernel_events
        assert all("achieved_occupancy" in e["args"]
                   for e in kernel_events)

    def test_write_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(profile_to_chrome_trace(self._profile()),
                           str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded
        assert loaded["otherData"]["module"] == "AStitch"


class TestCompileOptimized:
    def test_optimization_shrinks_module(self):
        from repro.ir.builder import GraphBuilder
        b = GraphBuilder()
        x = b.parameter("x", (1024,))
        noisy = b.add_scalar(b.mul_scalar(b.tanh(x), 1.0), 0.0)
        b.exp(x)  # dead
        b.output(noisy)
        graph = b.build()
        plain = XLACompiler().compile(graph)
        optimized = XLACompiler().compile_optimized(graph)
        assert len(optimized.kernels()) <= len(plain.kernels())

    def test_optimized_numerics_match(self):
        import numpy as np
        from repro.ir.interpreter import evaluate, random_feeds
        graph = micro.fig7_subgraph(16, 8)
        feeds = random_feeds(graph, seed=13)
        module = AStitchCompiler().compile_optimized(graph)
        got = module.execute(feeds)
        want = evaluate(graph, feeds)
        for (wk, wv), (gk, gv) in zip(sorted(want.items()),
                                      sorted(got.items())):
            np.testing.assert_allclose(gv, wv, rtol=1e-4, atol=1e-5)
