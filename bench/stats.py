"""Small statistics and naming helpers shared by the benchmark and its checks."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentiles considered for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then [A-Za-z0-9_.-], at most 64."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples (float-safe ceil)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def tail_percentile(n: int, min_beyond: int = 10):
    """Highest percentile in TAIL_PERCENTILES with at least min_beyond of n
    samples above it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(p, len(xs)) - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
