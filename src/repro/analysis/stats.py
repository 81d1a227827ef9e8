"""Shared summary statistics.

Small, dependency-free helpers for the percentile/mean arithmetic that
benchmarks and the serving layer's metrics both need — one definition of
"p99" (linear interpolation between closest ranks, numpy's default)
instead of ad-hoc reimplementations scattered through report code.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linearly interpolated.

    Matches ``numpy.percentile``'s default ("linear") method so results
    are comparable with any numpy-derived numbers: the percentile of a
    sorted sample ``x[0..n-1]`` is taken at fractional rank
    ``p/100 * (n-1)``.

    Raises:
        ValueError: Empty input or ``p`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return _interpolate(sorted(values), p)


def _interpolate(ordered: Sequence[float], p: float) -> float:
    """:func:`percentile` of an already sorted, non-empty sample."""
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclasses.dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample.

    Attributes:
        count: Sample size.
        mean: Arithmetic mean.
        p50: Median.
        p95: 95th percentile.
        p99: 99th percentile (the serving layer's tail-latency metric).
        minimum: Smallest value.
        maximum: Largest value.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly dict (keys match the attribute names)."""
        return dataclasses.asdict(self)


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a sample; all-zero summary for an empty one."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    return Summary(
        count=len(values),
        mean=mean(values),
        p50=_interpolate(ordered, 50),
        p95=_interpolate(ordered, 95),
        p99=_interpolate(ordered, 99),
        minimum=min(values),
        maximum=max(values),
    )
