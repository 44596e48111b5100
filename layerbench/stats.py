"""Order statistics used by every report (no numpy: the benchmark runs
in a bare checkout)."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = ["percentile", "summarise"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
