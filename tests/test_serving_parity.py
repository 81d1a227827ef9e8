"""Serving outputs pinned byte for byte.

Each case runs a seeded load test and compares sha256 digests of its
outputs with literals taken from the event loop that the current one
replaced: every request's timeline, every execution, the queue-depth
samples, the JSON report and the chrome trace.  A change to the event
order, the batcher, the admission queue, the load generator or the
report shows up here as a digest mismatch, not as a drifted benchmark.

To re-pin after an intended behaviour change, print ``_digests(...)``
for each case and paste the new literals.
"""

import hashlib
import json

import pytest

from repro.gpu.spec import T4, V100
from repro.serving import (
    AdmissionQueue,
    Cluster,
    DynamicBatcher,
    Request,
    make_fleet,
    max_sustainable_qps,
    report,
    run_loadtest,
    serving_to_chrome_trace,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(result, summary) -> dict[str, str]:
    """One digest per output of a load test (floats by exact repr)."""
    requests = [(r.seq, r.workload, r.arrival, r.batched_at, r.started,
                 r.completed, r.dropped) for r in result.requests]
    executions = [(e.batch.uid, e.batch.size, e.batch.bucket, e.worker,
                   e.start, e.end) for e in result.executions]
    return {
        "requests": _sha(repr(requests)),
        "executions": _sha(repr(executions)),
        "queue_samples": _sha(repr(result.queue_samples)),
        "report": _sha(json.dumps(summary.as_dict(), indent=2)),
        "trace": _sha(json.dumps(serving_to_chrome_trace(result),
                                 indent=1)),
    }


class _DyadicOracle:
    """Service times on a 1/1024 s grid, so sums of them, arrivals and
    ``max_wait`` meet exactly and every kind of event tie occurs."""

    class compiler:
        name = "dyadic"

    def service_time(self, workload: str, bucket: int, spec) -> float:
        base = {"a": 3, "b": 5}[workload] + bucket
        return base * (2 if spec is T4 else 1) / 1024


def _tied_run(policy: str):
    requests = [Request(seq=seq, workload="b" if seq % 3 == 0 else "a",
                        arrival=(seq // 4) * 3 / 1024,
                        slo=(24 + seq * 7 % 32) / 1024)
                for seq in range(240)]
    cluster = Cluster(make_fleet([V100, T4], _DyadicOracle()),
                      DynamicBatcher(max_batch=4, max_wait=6 / 1024),
                      queue=AdmissionQueue(max_depth=9), policy=policy)
    result = cluster.run(requests)
    return result, report(result)


MIX = {"CRNN": 2500.0, "DIEN": 400.0}

CASES = {
    "mix-fifo": lambda: run_loadtest(
        MIX, duration=1.0, specs=(V100, V100), policy="fifo", seed=5),
    "mix-edf": lambda: run_loadtest(
        MIX, duration=1.0, specs=(V100, V100), policy="edf", seed=5),
    "mix-least-loaded": lambda: run_loadtest(
        MIX, duration=1.0, specs=(V100, V100), policy="least-loaded",
        seed=5),
    "v100-t4-least-loaded": lambda: run_loadtest(
        MIX, duration=1.0, specs=(V100, T4), policy="least-loaded",
        seed=6),
    "overload-capped": lambda: run_loadtest(
        "DIEN", qps=3000.0, duration=1.0, specs=(V100,), max_depth=12,
        seed=7),
    "ties-fifo": lambda: _tied_run("fifo"),
    "ties-edf": lambda: _tied_run("edf"),
    "ties-least-loaded": lambda: _tied_run("least-loaded"),
}

EXPECTED = {
    "mix-edf": {
        "requests":
            "89547f20ffd6154fbff3d7babe52169211a163e6e6a278cb2a9c7b7b2b0966a8",
        "executions":
            "10a0897a2392d7a2ee299c1e2dead2a3b7c5387a5ed540252360c80c0ae76600",
        "queue_samples":
            "7a5b7104369e5c60095a734bda70d3d6e6ccc7ee7429ad5e9e760d46bec13bef",
        "report":
            "e86a5e0efe323510eb1c4081e8bc6a958a9770186344d8f7b2e3474a8519c803",
        "trace":
            "d9583543fa50d26c6bbdf23a0a8241f328fa7b733e2721cd01a36e16b5685804",
    },
    "mix-fifo": {
        "requests":
            "bc32a4e194c5d7747e72d9c10ddd91266451911fc7942831533a1564769e6f23",
        "executions":
            "ffe2c6e3ef38f87d2c79f92da98a702ba764dd1c263ba792b29fd9ec17e7993d",
        "queue_samples":
            "f1f0fa680a08aae6c406b4921ecd34fc92eb557b0b84005738df4116e4304b38",
        "report":
            "1f237bca24f33d69cea781c325e27fbef3ea960784560d270fe9c2bcaa0f804c",
        "trace":
            "47d88a19980adf6d87238fa81419bd0d0987c8f6aeaf2426f17551f8292a6d35",
    },
    "mix-least-loaded": {
        "requests":
            "bc32a4e194c5d7747e72d9c10ddd91266451911fc7942831533a1564769e6f23",
        "executions":
            "ffe2c6e3ef38f87d2c79f92da98a702ba764dd1c263ba792b29fd9ec17e7993d",
        "queue_samples":
            "f1f0fa680a08aae6c406b4921ecd34fc92eb557b0b84005738df4116e4304b38",
        "report":
            "52cbe413e914e753d4c7edc559cb18a2bc40225730725b391ddadd12eda840e2",
        "trace":
            "28bda4efba41716c7ef6a297d803545495bc20e61b8b105580fe7154986b5013",
    },
    "overload-capped": {
        "requests":
            "3147dafb9292b411f28d9a1e6a1b8b418aaee42ef8fc4b47d37ba32e359ac467",
        "executions":
            "92772aaba497d41c2bf6903d6af87a5dd4a4afb5ec0de5dfaf7371e20e94aae1",
        "queue_samples":
            "8abeb20c0e318f2f1b42ab6ca65fc6a453e717b6b72b49a3643d2a4696cde28f",
        "report":
            "f760e9b0c76a78b1ba7578781270a6e3c2eb720dd1e5a1e5dddf2ffe0eb57420",
        "trace":
            "b532c9a49ec51d3bd4452072d10a716b6f667b2adf6ce0c1c520583b2367b51f",
    },
    "ties-edf": {
        "requests":
            "f70333cbdf5524ebf1b882b550a58ed574e4d4760497314a13cc424adb1a310b",
        "executions":
            "18a14a36d159431ec34df1f50f278094e775706891fb7956076fb734286686f5",
        "queue_samples":
            "00fad91ceb3c75d5f57e2fcd21bd048ff787238cb85451364dbd7fb8e114690c",
        "report":
            "123ec306e5888e2f5766918197f7d561000f41043a8abb143b1e191157be6593",
        "trace":
            "f80a10c1e997da0433312e3056ae8d9a46fc5944a6393ea7041d8765c58754b5",
    },
    "ties-fifo": {
        "requests":
            "06d89aaa23130acbf03ecee694531c6d9ef2e70564dad9be150b9fc48ddbb970",
        "executions":
            "cfe70309660bfd133d4f8352c04643b2b1cf38eca3d3a2f0ce5302264dfcc708",
        "queue_samples":
            "c0c86a750287db5eb010191d6d06ba10d5e96afad589535da7cb1cc58cee4326",
        "report":
            "11f83c21ea87f44b934f0b4407eabf0fb07b0017d987ab7551dfa2a370bf000e",
        "trace":
            "9ff1058d653c61e262e1660e9e1d8c3bdb4486244e78e47d35a568d908e2e20f",
    },
    "ties-least-loaded": {
        "requests":
            "4b677f7bcfd4c9d424a27a4ad3cd2b9738cc096ac280d1d86a74c1c6c05e1338",
        "executions":
            "1fa9eb4f8d44998f5a4cf6eff05bf8f1a922c9174c31150808f284dacece6dfa",
        "queue_samples":
            "e9a09290b6ab4c10f1f2c6de1a163fa18484c47ce11a2fca9b9b42d86d025968",
        "report":
            "9b1da5349af1a08824cd8eb10e334d97e9dcadb32b67c719582772e23cef6ee9",
        "trace":
            "5c1933dd21714c14db74009ead111a780ffddec2f392b8077f01c5af890a285d",
    },
    "v100-t4-least-loaded": {
        "requests":
            "8c3a1489011e5db038255bd43aadff1b31e5426c348668df230dc3822b3a7c62",
        "executions":
            "ec9ce33b845f8bc2a4133abf77d01bcbfe64a5701ffe11d5f52b54b6c5c4e715",
        "queue_samples":
            "98b76ceb3c3ce4f51cc8197d326e9d629bbef289f59232d7d24c4c1dc9c0f745",
        "report":
            "2b2357d44aef590a2d4298e823d5b84dd166cc037b79201244f40861f73e16f3",
        "trace":
            "0d7cd50c5768b0f454ffa1dd4d003697ce66421c3b0bf6d26024daab347e7496",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digests(case):
    result, summary = CASES[case]()
    assert _digests(result, summary) == EXPECTED[case]


def test_overload_case_drops_requests():
    # The capped case must exercise admission control, or its digest
    # pins nothing about drops.
    _, summary = CASES["overload-capped"]()
    assert summary.dropped > 0
    assert summary.completed + summary.dropped == summary.requests


def test_tied_case_has_equal_time_events():
    result, _ = _tied_run("fifo")
    times = [time for time, _ in result.queue_samples]
    assert len(set(times)) < len(times)
    assert result.dropped > 0


def _capacity():
    found = max_sustainable_qps("DIEN", specs=(V100,), slo=0.05,
                                duration=2.0, start_qps=64.0,
                                resolution=8.0, seed=3)
    trials = [(t.qps, t.p99, t.violation_rate, t.sustained)
              for t in found.trials]
    return _sha(repr((found.qps, found.p99_at_qps, trials)))


CAPACITY = (
    "e7f703fc3efc351178dd6870a9897f59cfed0e7f039e921618f43de968996afb")


def test_capacity_search_matches_pinned_digest():
    assert _capacity() == CAPACITY
