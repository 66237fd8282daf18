"""Small-sample statistics the benchmark reports with."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples carry the ``q``-th percentile: at least
    :data:`MIN_BEYOND` of them must lie beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    run-to-run spread the regression bounds are set against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf
