"""Small statistics helpers shared by the workloads and the spread check."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried, lowest first, when picking the highest one that still
#: has enough samples beyond it to be repeatable.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if float(v) > threshold)


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``(q, value, n_beyond)``.  The median is always returned for a
    non-empty sample, even when it has fewer samples beyond it.
    """
    data = [float(v) for v in values]
    best = None
    for q in PERCENTILE_LADDER:
        value = percentile(data, q)
        beyond = samples_beyond(data, value)
        if best is None or beyond >= min_beyond:
            best = (q, value, beyond)
    return best


def median(values) -> float:
    return float(statistics.median(float(v) for v in values))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), the
    same definition the acceptance check applies to ten seeded runs.
    """
    data = [float(v) for v in values]
    if len(data) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(data, n=4)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


class Tally:
    """Failure accounting: every operation attempted, and why each failed.

    A refused or shed operation counts as failed, as does any output check
    that did not hold; ``rate`` is failures over attempts.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self, n: int = 1) -> None:
        self.attempted += int(n)

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += int(n)
        self.failed += int(n)
        self.reasons[reason] = self.reasons.get(reason, 0) + int(n)

    @property
    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
