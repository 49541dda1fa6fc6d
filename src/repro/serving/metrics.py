"""Per-endpoint request counters and latency histograms — bounded.

The per-endpoint record is bounded by construction, so a long-lived
server's metrics do not grow with traffic:

* **exact scalars** — error count and per-type error counts are plain
  counters, exact forever;
* **one latency histogram** — a
  :class:`~repro.obs.histogram.LatencyHistogram` with exact count, sum
  and max plus 722 fixed log-linear bins.  Percentiles (``p50`` /
  ``p95`` / ``p99``) are the nearest-rank bin's upper edge clamped to
  the max: never below the exact value, less than 10% above it for
  latencies from 1 µs to 100 s.  Every :data:`BUCKET_BOUNDS` value is a
  bin edge, so the Prometheus buckets
  (:meth:`RequestMetrics.prometheus_snapshot`) are exact sums of bins.

``errors`` can exceed ``count``: :meth:`RequestMetrics.record_error`
counts failures that happen *after* the request was timed (response
serialisation, socket writes) without a second latency observation.

Alongside the cumulative record, every endpoint carries a
:class:`~repro.obs.window.WindowedMetrics` bundle (1m/5m/1h ring
buffers of the same histogram) answering "rate / error-rate / p95 over
the last minute" with bounded memory — see
:meth:`RequestMetrics.windowed_summary`.  Window rings own their locks
and are updated *after* the cumulative lock is released, so cumulative
counts always lead windowed counts and no two locks are ever held
together.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

from repro.exceptions import ReproError
from repro.obs.histogram import LatencyHistogram
from repro.obs.window import WindowedMetrics

__all__ = ["RequestMetrics", "BUCKET_BOUNDS"]

logger = logging.getLogger("repro.serving.metrics")

#: Histogram bucket upper bounds in seconds (Prometheus ``le`` values);
#: the implicit final bucket is ``+Inf``.  Each is a histogram edge.
BUCKET_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _EndpointRecord:
    """Bounded per-endpoint accumulator (all access under the owner's
    lock)."""

    __slots__ = ("latency", "errors", "error_types")

    def __init__(self) -> None:
        self.latency = LatencyHistogram()
        self.errors = 0
        self.error_types: Counter = Counter()

    def summary(self) -> dict:
        latency = self.latency
        if latency.count == 0:
            nan = float("nan")
            record = {
                "count": 0, "mean": nan, "p50": nan,
                "p95": nan, "p99": nan, "max": nan,
            }
        else:
            record = {
                "count": latency.count,
                "mean": latency.sum_seconds / latency.count,
                "p50": latency.quantile(50),
                "p95": latency.quantile(95),
                "p99": latency.quantile(99),
                "max": latency.max_seconds,
            }
        record["errors"] = self.errors
        record["error_types"] = dict(self.error_types)
        return record


class RequestMetrics:
    """Thread-safe bounded request counters + latency histograms.

    Write with :meth:`observe` or :meth:`timed`; read with
    :meth:`summary`, :meth:`windowed_summary`,
    :meth:`prometheus_snapshot` or :meth:`render`.  See the module
    docstring for the percentile bounds.
    """

    def __init__(
        self, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._endpoints: dict[str, _EndpointRecord] = {}
        self._windows: dict[str, WindowedMetrics] = {}

    def _record(self, endpoint: str) -> _EndpointRecord:
        record = self._endpoints.get(endpoint)
        if record is None:
            record = self._endpoints[endpoint] = _EndpointRecord()
        return record

    def _window(self, endpoint: str) -> WindowedMetrics:
        windows = self._windows.get(endpoint)
        if windows is None:
            windows = self._windows[endpoint] = WindowedMetrics(
                clock=self._clock
            )
        return windows

    def observe(
        self,
        endpoint: str,
        seconds: float,
        error: bool = False,
        error_type: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        """Record one request against ``endpoint`` (e.g. ``POST /v1/score``).

        ``trace_id`` tags the observation in the rolling windows so the
        slowest request of any window joins back to its span waterfall.
        """
        with self._lock:
            record = self._record(endpoint)
            record.latency.add(seconds)
            if error:
                record.errors += 1
                record.error_types[error_type or "unknown"] += 1
            windows = self._window(endpoint)
        # Outside the cumulative lock: the rings serialise themselves,
        # and cumulative counts stay >= windowed counts for readers.
        windows.observe(seconds, error=error, trace_id=trace_id)

    def record_error(self, endpoint: str, error_type: str) -> None:
        """Count an error with no latency observation.

        For failures after the request was already observed — response
        serialisation, the socket write — so nothing silently vanishes
        from the error counters.  ``errors`` may exceed ``count`` as a
        result.
        """
        with self._lock:
            record = self._record(endpoint)
            record.errors += 1
            record.error_types[error_type or "unknown"] += 1

    @contextmanager
    def timed(self, endpoint: str):
        """Context manager timing one request; exceptions count as errors.

        Library failures (:class:`ReproError`) are expected
        request-level errors: counted by type and re-raised for the
        caller's error handling.  Anything else is a bug in the serving
        stack itself, so it is additionally logged with its traceback —
        never discarded — before propagating.
        """
        start = perf_counter()
        try:
            yield
        except ReproError as exc:
            self.observe(
                endpoint,
                perf_counter() - start,
                error=True,
                error_type=type(exc).__name__,
            )
            raise
        except Exception as exc:
            self.observe(
                endpoint,
                perf_counter() - start,
                error=True,
                error_type=type(exc).__name__,
            )
            logger.exception(
                "unexpected %s handling %s", type(exc).__name__, endpoint
            )
            raise
        self.observe(endpoint, perf_counter() - start)

    # -- read side ---------------------------------------------------------
    def request_count(self, endpoint: str | None = None) -> int:
        with self._lock:
            if endpoint is not None:
                record = self._endpoints.get(endpoint)
                return record.latency.count if record is not None else 0
            return sum(r.latency.count for r in self._endpoints.values())

    def error_count(self, endpoint: str | None = None) -> int:
        with self._lock:
            if endpoint is not None:
                record = self._endpoints.get(endpoint)
                return record.errors if record is not None else 0
            return sum(r.errors for r in self._endpoints.values())

    def summary(self) -> dict[str, dict]:
        """endpoint → counters + latency percentiles, for ``GET /metrics``."""
        with self._lock:
            return {
                endpoint: self._endpoints[endpoint].summary()
                for endpoint in sorted(self._endpoints)
            }

    def windowed_summary(self) -> dict[str, dict[str, dict]]:
        """endpoint → window name → rolling summary (NaN-free).

        Each window summary carries ``count`` / ``errors`` / ``rate`` /
        ``error_rate`` / ``p50`` / ``p95`` / ``p99`` / ``max`` /
        ``slowest_trace_id`` over the last 1m/5m/1h; see
        :mod:`repro.obs.window` for estimation semantics.
        """
        with self._lock:
            windows = sorted(self._windows.items())
        return {endpoint: bundle.summary() for endpoint, bundle in windows}

    def prometheus_snapshot(self) -> dict[str, dict]:
        """endpoint → exact counters + *cumulative* histogram buckets.

        The shape :func:`repro.obs.prometheus.render_prometheus`
        consumes: ``buckets`` is ``[(le_bound, cumulative_count), ...]``
        over :data:`BUCKET_BOUNDS` (the renderer adds the ``+Inf``
        bucket from ``count``).
        """
        with self._lock:
            out: dict[str, dict] = {}
            for endpoint in sorted(self._endpoints):
                record = self._endpoints[endpoint]
                latency = record.latency
                out[endpoint] = {
                    "count": latency.count,
                    "sum_seconds": latency.sum_seconds,
                    "errors": record.errors,
                    "error_types": dict(record.error_types),
                    "buckets": [
                        (bound, latency.count_le(bound))
                        for bound in BUCKET_BOUNDS
                    ],
                }
            return out

    def render(self) -> str:
        """Fixed-width latency table (milliseconds), one row per endpoint."""
        from repro.core.reporting import render_table

        rows = []
        for endpoint, record in self.summary().items():
            rows.append(
                [
                    endpoint,
                    record["count"],
                    record["errors"],
                    f"{1000 * record['mean']:.2f}",
                    f"{1000 * record['p50']:.2f}",
                    f"{1000 * record['p95']:.2f}",
                    f"{1000 * record['p99']:.2f}",
                ]
            )
        return render_table(
            ["endpoint", "requests", "errors", "mean ms", "p50 ms",
             "p95 ms", "p99 ms"],
            rows,
            title="Request metrics",
        )
