"""Percentiles and spreads used by the benchmark and its steadiness tool."""

import math
import statistics


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) of `values`, linearly interpolated
    between the two nearest order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(count, q):
    """How many of `count` samples lie strictly above the q-quantile as
    `percentile` interpolates it (above order statistic floor(q (n-1)))."""
    return count - 1 - math.floor(q * (count - 1) + 1e-9)


def tail_supported(count, q, needed=10):
    """True when at least `needed` samples lie beyond the q-quantile."""
    return beyond(count, q) >= needed


def iqr_share(values):
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles(n=4)
    gives (its default `exclusive` method)."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        raise ValueError("median is zero")
    return (q3 - q1) / abs(median)
