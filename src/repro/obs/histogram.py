"""The one latency aggregate: a mergeable log-linear histogram.

Every server-side latency view — the cumulative per-endpoint record
behind ``GET /metrics``, each slot of the rolling windows and the
Prometheus ``le`` buckets — is a :class:`LatencyHistogram`.  It keeps
an exact ``count``, ``sum_seconds`` and ``max_seconds`` plus 722 fixed
bins (HdrHistogram-style; compare DDSketch, Masson, Rim & Lee, VLDB
2019):

* an underflow bin ``[0, 1 µs]``;
* 720 log-linear bins at two significant decimal digits, with upper
  edges ``d·10^e`` for ``d = 1.1, 1.2 … 10.0`` and ``e = -6 … 1``
  (1 µs to 100 s);
* an overflow bin ``(100 s, +Inf)``.

Bins are upper-inclusive, like Prometheus ``le``: a value lands in the
first bin whose edge is ``>= value``.  Each edge is the float nearest
its decimal value, so every :data:`~repro.serving.metrics.BUCKET_BOUNDS`
literal *is* an edge and :meth:`LatencyHistogram.count_le` gives the
exact cumulative count there.

:meth:`LatencyHistogram.quantile` reports the nearest-rank bin's upper
edge clamped to the exact maximum.  The estimate is never below the
exact nearest-rank value and never above the maximum; for exact values
from 1 µs to 100 s it is less than 10% high (adjacent edges differ by
at most a factor 1.1).

:func:`nearest_rank` is the exact definition over a sorted list, for
callers that hold every sample (the load tester, the serving bench)
and for tests that check the estimate against it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["EDGES", "N_BINS", "LatencyHistogram", "nearest_rank"]


def _edges() -> tuple[float, ...]:
    edges = [1 / 10**6]
    for e in range(-6, 2):
        k = e - 1  # d·10^e == m·10^k with m = 10·d in 11 … 100
        for m in range(11, 101):
            # Integer true division rounds correctly, so each edge is
            # the same float as its decimal literal (25 / 10**4 == 0.0025).
            edges.append(float(m * 10**k) if k >= 0 else m / 10**-k)
    return tuple(edges)


#: Finite bin upper edges in seconds, ascending (721 values).
EDGES: tuple[float, ...] = _edges()

#: Bins per histogram: underflow, the 720 log-linear bins, overflow.
N_BINS = len(EDGES) + 1


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n``."""
    return min(max(1, math.ceil(q / 100.0 * n)), n)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank ``q``-th percentile (``q`` in [0, 100]) of an
    ascending sequence; NaN when empty."""
    if not ordered:
        return float("nan")
    return ordered[_rank(q, len(ordered)) - 1]


class LatencyHistogram:
    """Latency distribution in :data:`N_BINS` fixed bins.

    Not thread-safe: owners serialise access under their own lock.  The
    bins are one int64 array of ``N_BINS × 8`` bytes (5,776 B), allocated
    on the first :meth:`add` or :meth:`merge` and reused after
    :meth:`clear`, so an idle histogram costs a few scalars.  Reads
    share one running sum of the bins until the next write, so the
    three percentiles of a summary and the 13 Prometheus buckets of a
    scrape each cost one pass over the bins.
    """

    __slots__ = ("count", "sum_seconds", "max_seconds", "_bins", "_cumulative")

    def __init__(self) -> None:
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0
        self._bins: np.ndarray | None = None
        self._cumulative: np.ndarray | None = None

    def add(self, seconds: float) -> None:
        """Record one latency of ``seconds``."""
        if self._bins is None:
            self._bins = np.zeros(N_BINS, dtype=np.int64)
        self._bins[bisect_left(EDGES, seconds)] += 1
        self._cumulative = None
        self.count += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def clear(self) -> None:
        """Forget every observation; the bin array is kept for reuse."""
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0
        self._cumulative = None
        if self._bins is not None:
            self._bins.fill(0)

    def merge(self, other: LatencyHistogram) -> None:
        """Add ``other``'s observations to this histogram."""
        if other.count == 0:
            return
        if self._bins is None:
            self._bins = other._bins.copy()
        else:
            self._bins += other._bins
        self._cumulative = None
        self.count += other.count
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    def quantile(self, q: float) -> float | None:
        """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) as its
        bin's upper edge clamped to ``max_seconds``; None when empty.

        The overflow bin has no finite edge and reports the maximum.
        """
        if self.count == 0:
            return None
        i = int(np.searchsorted(self._running_sum(), _rank(q, self.count)))
        if i == len(EDGES):
            return self.max_seconds
        return min(EDGES[i], self.max_seconds)

    def count_le(self, edge: float) -> int:
        """Exact number of observations ``<= edge``; ``edge`` must be
        one of :data:`EDGES`."""
        i = bisect_left(EDGES, edge)
        if i == len(EDGES) or EDGES[i] != edge:
            raise ConfigurationError(f"{edge!r} is not a histogram edge")
        if self.count == 0:
            return 0
        return int(self._running_sum()[i])

    def _running_sum(self) -> np.ndarray:
        if self._cumulative is None:
            self._cumulative = np.cumsum(self._bins)
        return self._cumulative
