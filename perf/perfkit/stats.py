"""Exact order statistics for latency samples and run-to-run spread."""

from __future__ import annotations

import statistics
from typing import Sequence


def quantile(samples: Sequence[float], q: float) -> float:
    """The exact ``q``-quantile, linearly interpolated between ranks.

    ``quantile(xs, 0)`` is the minimum, ``quantile(xs, 1)`` the maximum,
    and ``quantile(xs, 0.5)`` equals :func:`statistics.median`.
    """
    if not samples:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(samples: Sequence[float]) -> float:
    return quantile(samples, 0.5)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    This is the estimator the acceptance check uses for run-to-run
    spread, so the noise report must use the same one.
    """
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def histogram_quantile(buckets: Sequence[tuple[float, float]],
                       q: float) -> float:
    """Quantile of a cumulative ``(upper_bound, count)`` histogram.

    Linear interpolation inside the bucket that crosses the rank, the
    way Prometheus' ``histogram_quantile`` estimates it; 0.0 for an
    empty histogram.  The ``+Inf`` bucket reports its lower edge.
    """
    ordered = sorted(buckets)
    if not ordered or ordered[-1][1] <= 0:
        return 0.0
    rank = q * ordered[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for upper_bound, count in ordered:
        if count >= rank:
            if upper_bound == float("inf") or count == lower_count:
                return lower_bound
            share = (rank - lower_count) / (count - lower_count)
            return lower_bound + (upper_bound - lower_bound) * share
        lower_bound, lower_count = upper_bound, count
    return lower_bound
