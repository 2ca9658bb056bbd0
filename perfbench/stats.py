"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile pct among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction of the incomplete beta function (modified Lentz).
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights concentrated
    around rank q*n.  It estimates the same quantile as a single order
    statistic does, but which op happens to land on that rank moves it far
    less, so repeated runs agree more closely.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond its nearest-rank position;
    the value is the percentile's Harrell-Davis estimate.

    With fewer than 2 * TAIL_MIN_BEYOND samples no ladder entry qualifies and
    the median is returned; the caller reports the short count.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            break
    return pct, quantile(values, pct / 100), n - _rank(pct, n)


def spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
