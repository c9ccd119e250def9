"""Percentiles with the tail rule the benchmark reports by.

Percentiles use the nearest-rank definition: the q-th percentile of n sorted
samples is the sample at 1-based rank ceil(q * n / 100).  A percentile is
only trustworthy when at least ``MIN_BEYOND`` samples lie beyond it, so p90
needs at least 100 samples.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    return max(1, math.ceil(q * n / 100.0))


def beyond(n: int, q: float) -> int:
    """Number of samples that lie strictly beyond the q-th percentile's rank."""
    return n - rank(n, q)


def tail_ok(n: int, q: float) -> bool:
    """True when the q-th percentile of n samples has enough samples beyond it."""
    return n >= 1 and beyond(n, q) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of the samples."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]
