"""Smoothness measures for a monthly index series.

Three measures: the standard deviation of the levels (spread), the
standard deviation of the first differences (how erratic the month-to-month
changes are), and the mean spike magnitude, which averages the squared
contrast between consecutive differences each time the trend direction
flips.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence


class UndefinedMetricError(ValueError):
    """The series is too short for the requested measure."""


def std_dev(series: Sequence[float]) -> float:
    """Population standard deviation (divides by N)."""
    n = len(series)
    if n < 2:
        raise UndefinedMetricError("std_dev needs at least 2 values")
    mean = sum(series) / n
    return math.sqrt(sum((x - mean) ** 2 for x in series) / n)


def _differences(series: Sequence[float]) -> list[float]:
    return [series[i + 1] - series[i] for i in range(len(series) - 1)]


def std_dev_differences(series: Sequence[float]) -> float:
    """Standard deviation of the first differences of the series."""
    if len(series) < 3:
        raise UndefinedMetricError("std_dev_differences needs at least 3 values")
    return std_dev(_differences(series))


def mean_spike_magnitude(series: Sequence[float]) -> tuple[float, int]:
    """Mean squared spike magnitude and the spike count.

    A spike is a pair of consecutive differences with strictly opposite
    signs; its magnitude is the absolute contrast between the two.  A zero
    difference has no sign, so a flat step never forms a spike.  Returns
    (0.0, 0) when the series never changes direction.
    """
    if len(series) < 3:
        raise UndefinedMetricError("mean_spike_magnitude needs at least 3 values")
    diffs = _differences(series)
    total = 0.0
    count = 0
    for d_cur, d_next in zip(diffs, diffs[1:]):
        if (d_cur > 0 and d_next < 0) or (d_cur < 0 and d_next > 0):
            magnitude = abs(d_next - d_cur)
            total += magnitude * magnitude
            count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


@dataclass(frozen=True)
class SeriesMetrics:
    std_dev: float
    std_dev_diffs: float
    msm: float
    spike_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def series_metrics(series: Sequence[float]) -> SeriesMetrics:
    """All three smoothness measures of one series."""
    msm, spikes = mean_spike_magnitude(series)
    return SeriesMetrics(
        std_dev=std_dev(series),
        std_dev_diffs=std_dev_differences(series),
        msm=msm,
        spike_count=spikes,
    )
