"""Fixed-width ring-of-buckets time windows — bounded rolling telemetry.

Cumulative counters answer "how many ever"; a live operator needs "how
many over the last minute".  This module provides that second view
without unbounded memory: a ring is ``n_buckets`` fixed-width buckets
addressed by ``epoch = int(now / width)``.  Writing rotates lazily — a
bucket whose stored epoch is stale is reset before reuse — so idle gaps
of any length cost nothing and never leak old samples into a fresh
window (the skew/gap behaviour the rotation tests pin).

Two ring flavours share that one rotation:

* :class:`BucketRing` — full request telemetry per bucket: errors, a
  :class:`~repro.obs.histogram.LatencyHistogram` (exact count and max;
  p50/p95/p99 from the merged histogram, less than 10% high and never
  above the window max), and the slowest request's trace id so a
  windowed outlier joins straight to its span waterfall.
* :class:`CountRing` — just total/bad counts; the burn-rate engine's
  substrate (:mod:`repro.obs.burnrate`).

All clocks are injected (``clock`` defaults to ``time.monotonic``), so
tests drive rotation deterministically.  Summaries are NaN-free by
construction: an empty window reports zero rates and ``None``
percentiles, never NaN — these dicts go straight into ``/metrics``
JSON, which has no NaN.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.obs.histogram import LatencyHistogram

__all__ = [
    "BucketRing",
    "CountRing",
    "WindowedMetrics",
    "WINDOW_LAYOUT",
]

#: The standard window layout: name → (bucket width seconds, buckets).
#: 60×1s answers "last minute" at second resolution, 60×5s "last five
#: minutes", 60×60s "last hour" — three rings, constant memory.
WINDOW_LAYOUT: tuple[tuple[str, float, int], ...] = (
    ("1m", 1.0, 60),
    ("5m", 5.0, 60),
    ("1h", 60.0, 60),
)


class _Ring:
    """``n_buckets`` epoch-addressed slots; subclasses hold the lock
    while they touch a slot."""

    def __init__(
        self,
        width_seconds: float,
        n_buckets: int,
        new_bucket: Callable[[], object],
        clock: Callable[[], float],
    ):
        if width_seconds <= 0:
            raise ConfigurationError(
                f"width_seconds must be > 0, got {width_seconds}"
            )
        if n_buckets < 2:
            raise ConfigurationError(
                f"n_buckets must be >= 2, got {n_buckets}"
            )
        self.width = width_seconds
        self.n_buckets = n_buckets
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets = [new_bucket() for _ in range(n_buckets)]

    @property
    def span_seconds(self) -> float:
        return self.width * self.n_buckets

    def _current(self, now: float):
        """The bucket for ``now``, reset first if it holds a stale epoch."""
        epoch = int(now / self.width)
        bucket = self._buckets[epoch % self.n_buckets]
        if bucket.epoch != epoch:
            bucket.reset(epoch)
        return bucket

    def _live(self, now: float) -> list:
        newest = int(now / self.width)
        oldest = newest - self.n_buckets + 1
        return [b for b in self._buckets if oldest <= b.epoch <= newest]


class _Bucket:
    """One time slice of a :class:`BucketRing`."""

    __slots__ = ("epoch", "errors", "latency", "slowest_trace_id")

    def __init__(self) -> None:
        self.epoch = -1
        self.errors = 0
        self.latency = LatencyHistogram()
        self.slowest_trace_id: str | None = None

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.errors = 0
        self.latency.clear()
        self.slowest_trace_id = None


class BucketRing(_Ring):
    """Rolling request telemetry over ``n_buckets`` × ``width`` seconds.

    Thread-safe.  A bucket's histogram bins are allocated on its first
    write, so an endpoint's three standard rings hold at most 180 bin
    arrays (about 1.04 MB) however long the server runs.
    """

    def __init__(
        self,
        width_seconds: float,
        n_buckets: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(width_seconds, n_buckets, _Bucket, clock)

    def observe(
        self,
        seconds: float,
        error: bool = False,
        trace_id: str | None = None,
    ) -> None:
        now = self._clock()
        with self._lock:
            bucket = self._current(now)
            if error:
                bucket.errors += 1
            if seconds >= bucket.latency.max_seconds:
                bucket.slowest_trace_id = trace_id
            bucket.latency.add(seconds)

    def summary(self) -> dict:
        """The window folded into one NaN-free dict.

        ``rate`` divides by the full window span, so a burst reads as
        its true per-second rate over the window rather than spiking on
        partial data.  ``error_rate`` is 0.0 (not NaN) when the window
        is empty; percentiles are ``None`` (JSON null) when empty.
        """
        now = self._clock()
        merged = LatencyHistogram()
        errors = 0
        slowest_trace_id = None
        with self._lock:
            for b in self._live(now):
                errors += b.errors
                if b.latency.count and (
                    b.latency.max_seconds >= merged.max_seconds
                ):
                    slowest_trace_id = b.slowest_trace_id
                merged.merge(b.latency)
        count = merged.count
        return {
            "count": count,
            "errors": errors,
            "rate": count / self.span_seconds,
            "error_rate": (errors / count) if count else 0.0,
            "p50": merged.quantile(50),
            "p95": merged.quantile(95),
            "p99": merged.quantile(99),
            "max": merged.max_seconds if count else None,
            "slowest_trace_id": slowest_trace_id,
        }


class _CountBucket:
    __slots__ = ("epoch", "total", "bad")

    def __init__(self) -> None:
        self.reset(-1)

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.total = 0
        self.bad = 0


class CountRing(_Ring):
    """Rolling total/bad event counts (the burn-rate substrate)."""

    def __init__(
        self,
        width_seconds: float,
        n_buckets: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(width_seconds, n_buckets, _CountBucket, clock)

    def observe(self, bad: bool) -> None:
        now = self._clock()
        with self._lock:
            bucket = self._current(now)
            bucket.total += 1
            if bad:
                bucket.bad += 1

    def counts(self) -> tuple[int, int]:
        """(total, bad) events currently inside the window."""
        now = self._clock()
        with self._lock:
            live = self._live(now)
            return sum(b.total for b in live), sum(b.bad for b in live)


class WindowedMetrics:
    """The standard three-resolution window set for one endpoint.

    A thin bundle of :class:`BucketRing` per :data:`WINDOW_LAYOUT`
    entry; :class:`~repro.serving.metrics.RequestMetrics` keeps one per
    endpoint and fans every observation into all three rings.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        layout: tuple[tuple[str, float, int], ...] = WINDOW_LAYOUT,
    ):
        self.rings = {
            name: BucketRing(width, n, clock=clock)
            for name, width, n in layout
        }

    def observe(
        self,
        seconds: float,
        error: bool = False,
        trace_id: str | None = None,
    ) -> None:
        for ring in self.rings.values():
            ring.observe(seconds, error=error, trace_id=trace_id)

    def summary(self) -> dict[str, dict]:
        return {name: ring.summary() for name, ring in self.rings.items()}
