"""The benchmark's own arithmetic: nearest-rank and tail percentiles, ratios."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: tail percentiles tried from the highest down, see :func:`tail_percentile`
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by nearest rank: the value at 1-based
    rank ``ceil(pct/100 * n)`` of the sorted samples."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_pct(n: int) -> float:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it (99 once ``n >= 1000``);
    the median when even that has fewer."""
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)``: the reported tail of ``values`` under the rule
    of :func:`tail_pct`.  Infinite samples (failed operations) sort last."""
    data = sorted(values)
    pct = tail_pct(len(data))
    return pct, nearest_rank(data, pct)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
