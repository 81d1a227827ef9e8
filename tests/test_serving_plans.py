"""Serving through the plan layer: same numbers, fewer pricings.

The plan cache is a pure wall-clock optimization — every simulated
metric a load test or capacity search reports must be bit-identical
between a run priced from scratch (cleared cost-model memos, a fresh
plan cache) and a warm replay of the same run.
"""

import dataclasses
import pickle

import pytest

from repro.core import AStitchCompiler
from repro.gpu.spec import T4, V100
from repro.runtime.plan import PlanCache, default_plan_cache
from repro.serving.batcher import DynamicBatcher
from repro.serving.cluster import Cluster
from repro.serving.harness import max_sustainable_qps, run_loadtest
from repro.serving.worker import ServiceTimeOracle, make_fleet


def _cold_and_warm(run):
    """Run ``run`` priced from scratch, then again as a pure replay.

    The first call starts from the ``fresh_caches`` cold state (cleared
    cost-model memos, an empty plan cache); the second must build no
    plan, only replay them.
    """
    plans = default_plan_cache()
    cold = run()
    built = plans.stats.misses
    warm = run()
    assert built > 0
    assert plans.stats.misses == built  # the warm run only replays
    return cold, warm


@pytest.mark.usefixtures("fresh_caches")
class TestLoadtestDeterminism:
    def test_report_identical_cold_and_warm(self):
        compiler = AStitchCompiler()

        def run():
            _, summary = run_loadtest(
                {"CRNN": 40.0, "Transformer": 25.0}, qps=40.0,
                duration=3.0, specs=(V100, T4), max_batch=4, seed=3,
                compiler=compiler)
            return summary.as_dict()

        cold, warm = _cold_and_warm(run)
        assert cold == warm

    def test_request_timelines_identical(self):
        compiler = AStitchCompiler()

        def run():
            result, _ = run_loadtest("CRNN", qps=60.0, duration=2.0,
                                     seed=1, compiler=compiler)
            return [(r.arrival, r.started, r.completed)
                    for r in result.requests]

        cold, warm = _cold_and_warm(run)
        assert cold == warm


@pytest.mark.usefixtures("fresh_caches")
class TestCapacitySearchDeterminism:
    def test_capacity_identical_with_and_without_plans(self):
        compiler = AStitchCompiler()

        def run():
            return max_sustainable_qps(
                "CRNN", compiler=compiler, duration=2.0, seed=0,
                start_qps=8.0, relative_resolution=0.25).qps

        cold, warm = _cold_and_warm(run)
        assert cold == warm


class TestOracleSharing:
    def test_oracle_prices_each_bucket_once(self):
        cache = PlanCache()
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=cache)
        first = oracle.service_time("CRNN", 4, V100)
        again = oracle.service_time("CRNN", 4, V100)
        assert first == again
        # One plan built for the (workload, bucket, spec) triple; the
        # repeat lookup is served by the oracle's own memo or the cache.
        assert cache.stats.misses <= 1

    def test_oracle_keys_the_device_by_value(self):
        """A same-named device variant gets its own price, not the
        stock device's."""
        slow = dataclasses.replace(V100,
                                   dram_bandwidth=V100.dram_bandwidth / 4)
        oracle = ServiceTimeOracle(AStitchCompiler())
        stock = oracle.service_time("CRNN", 4, V100)
        priced = oracle.service_time("CRNN", 4, slow)
        fresh = ServiceTimeOracle(AStitchCompiler()).service_time(
            "CRNN", 4, slow)
        assert priced == fresh
        assert priced == pytest.approx(13.58e-3, rel=1e-3)
        assert stock == pytest.approx(5.30e-3, rel=1e-3)

    def test_spec_hash_is_cached_and_never_pickled(self):
        spec = dataclasses.replace(V100, name="V100-hash")
        hash(spec)
        assert "_hash" in spec.__dict__
        copy = pickle.loads(pickle.dumps(spec))
        assert "_hash" not in copy.__dict__
        assert copy == spec and hash(copy) == hash(spec)

    def test_cluster_exposes_oracle_plan_cache(self):
        cache = PlanCache()
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=cache)
        cluster = Cluster(make_fleet([V100], oracle),
                          DynamicBatcher(max_batch=4))
        assert cluster.plan_cache is cache
