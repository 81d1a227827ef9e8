"""Open-loop load generation for the serving simulation.

Arrivals are generated *open loop*: request timestamps are drawn up
front from a seeded Poisson process (or read from a trace file) and do
not react to how the server keeps up — the standard methodology for
tail-latency measurement (an overloaded server faces an ever-growing
queue, exactly as it would in production, instead of a politely
backing-off client).

Everything is driven by ``random.Random(seed)``: the same seed, rate
and duration produce the identical request sequence on every run and
platform, which keeps load tests and the CI smoke bench deterministic.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping

from repro.serving.request import ARRIVAL_ORDER, Request

DEFAULT_SLO = 0.5


def poisson_arrivals(workload: str, qps: float, duration: float,
                     slo: float = DEFAULT_SLO, seed: int = 0,
                     start_seq: int = 0) -> list[Request]:
    """Poisson arrival stream for one workload.

    Args:
        workload: Registered workload name every request targets.
        qps: Mean arrival rate (queries per virtual second).
        duration: Virtual seconds to generate arrivals for.
        slo: Per-request latency objective in seconds.
        seed: RNG seed (same seed -> identical stream).
        start_seq: First request id (lets callers merge streams).

    Raises:
        ValueError: Non-positive rate or duration.
    """
    if qps <= 0:
        raise ValueError(f"qps must be > 0, got {qps}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    gap = random.Random(seed).expovariate
    requests = []
    now = 0.0
    seq = start_seq
    while True:
        now += gap(qps)
        if now >= duration:
            break
        requests.append(Request(seq, workload, now, slo))
        seq += 1
    return requests


def mixed_arrivals(rates: Mapping[str, float], duration: float,
                   slo: float = DEFAULT_SLO,
                   seed: int = 0) -> list[Request]:
    """Merge independent Poisson streams, one per workload.

    Each workload gets its own derived seed (stable under reordering of
    ``rates``), then the merged stream is re-sequenced by arrival time.
    """
    streams = []
    for index, workload in enumerate(sorted(rates)):
        streams.extend(poisson_arrivals(
            workload, rates[workload], duration, slo=slo,
            seed=seed * 1_000_003 + index))
    streams.sort(key=ARRIVAL_ORDER)
    for seq, request in enumerate(streams):
        request.seq = seq
    return streams


def arrivals_from_trace(path: str,
                        default_slo: float = DEFAULT_SLO) -> list[Request]:
    """Load a request trace from a JSON-lines file.

    Each line is an object with ``arrival`` (seconds) and ``workload``,
    plus an optional ``slo``.  Lines are re-sorted by arrival time, so
    hand-edited traces need not be ordered.
    """
    requests = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            requests.append(Request(
                seq=len(requests),
                workload=record["workload"],
                arrival=float(record["arrival"]),
                slo=float(record.get("slo", default_slo)),
            ))
    requests.sort(key=ARRIVAL_ORDER)
    for seq, request in enumerate(requests):
        request.seq = seq
    return requests


def write_trace(requests: list[Request], path: str) -> None:
    """Persist an arrival stream as the JSON-lines trace format."""
    with open(path, "w") as handle:
        for request in requests:
            handle.write(json.dumps({
                "arrival": request.arrival,
                "workload": request.workload,
                "slo": request.slo,
            }) + "\n")
