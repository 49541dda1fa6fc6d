"""Order statistics used by every workload.

Latencies are summarised by nearest-rank percentiles, which always
return an observed value, with the sample count reported beside them.
"""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The result is the smallest observed value with at least ``q`` percent
    of the sample at or below it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def summary(values: list[float]) -> dict[str, float]:
    """Median, tail percentiles and the sample count they rest on."""
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "samples": len(values),
    }


def median(values: list[float]) -> float:
    """Nearest-rank median (an observed value, never an average)."""
    return percentile(values, 50)
