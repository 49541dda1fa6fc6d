"""Rotation, idle gaps and NaN-freedom of the windowed telemetry rings.

Every test drives the ring with an injected fake clock, so rotation —
the part that corrupts silently when wrong — is exercised
deterministically: partial windows, exact-boundary skew, idle gaps
longer than the whole ring, and wrap-around reuse of the same bucket
slots.  Summaries must stay JSON-safe (no NaN) at every point,
including the completely empty ring.
"""

from __future__ import annotations

import json
import math

from repro.obs import BucketRing, CountRing, WindowedMetrics
from repro.obs.window import WINDOW_LAYOUT


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_ring(width=1.0, n=60, clock=None):
    return BucketRing(width, n, clock=clock or FakeClock())


def assert_json_safe(summary: dict) -> None:
    """The summary must survive strict JSON and contain no NaN."""
    text = json.dumps(summary, allow_nan=False)
    for value in json.loads(text).values():
        if isinstance(value, float):
            assert not math.isnan(value)


class TestEmptyAndValidation:
    def test_empty_ring_is_nan_free(self):
        summary = make_ring().summary()
        assert summary["count"] == 0
        assert summary["rate"] == 0.0
        assert summary["error_rate"] == 0.0
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["p99"] is None
        assert summary["max"] is None
        assert summary["slowest_trace_id"] is None
        assert_json_safe(summary)

    def test_bad_geometry_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            BucketRing(0.0, 60)
        with pytest.raises(ValueError):
            BucketRing(1.0, 1)
        with pytest.raises(ValueError):
            CountRing(-1.0, 60)
        with pytest.raises(ValueError):
            CountRing(1.0, 0)

    def test_every_incremental_summary_is_json_safe(self):
        clock = FakeClock()
        ring = make_ring(clock=clock)
        for i in range(10):
            ring.observe(0.001 * (i + 1), error=(i % 3 == 0))
            clock.advance(0.4)
            assert_json_safe(ring.summary())


class TestRotation:
    def test_observations_age_out_after_the_window(self):
        clock = FakeClock()
        ring = make_ring(width=1.0, n=60, clock=clock)
        ring.observe(0.010, trace_id="early")
        assert ring.summary()["count"] == 1
        clock.advance(59.0)  # still inside the 60s span
        assert ring.summary()["count"] == 1
        clock.advance(2.0)  # now outside
        summary = ring.summary()
        assert summary["count"] == 0
        assert summary["slowest_trace_id"] is None

    def test_idle_gap_longer_than_ring_resets_stale_buckets(self):
        clock = FakeClock()
        ring = make_ring(width=1.0, n=60, clock=clock)
        for _ in range(10):
            ring.observe(0.005)
            clock.advance(1.0)
        clock.advance(3600.0)  # an hour of silence, 60x the span
        assert ring.summary()["count"] == 0
        # The slot reused after the gap must not resurrect old counts.
        ring.observe(0.007)
        assert ring.summary()["count"] == 1

    def test_wraparound_keeps_exactly_one_window(self):
        clock = FakeClock(now=0.0)
        ring = make_ring(width=1.0, n=10, clock=clock)
        # 25 seconds of one observation per second through a 10s ring.
        for _ in range(25):
            ring.observe(0.002)
            clock.advance(1.0)
        # The window covers 10 epochs ending at the *current* one,
        # which is still empty after the final advance — so exactly
        # n-1 filled buckets survive, never more.
        assert ring.summary()["count"] == 9

    def test_boundary_skew_observation_lands_in_new_bucket(self):
        clock = FakeClock(now=9.9999)
        ring = make_ring(width=1.0, n=10, clock=clock)
        ring.observe(0.001)
        clock.advance(0.0002)  # crosses the epoch boundary
        ring.observe(0.001)
        assert ring.summary()["count"] == 2
        # Aging out happens per-bucket: the first dies one second
        # before the second.
        clock.advance(9.0)
        assert ring.summary()["count"] == 1

    def test_count_ring_rotation_matches(self):
        clock = FakeClock()
        ring = CountRing(1.0, 60, clock=clock)
        for i in range(100):
            ring.observe(bad=(i % 10 == 0))
            clock.advance(1.0)
        total, bad = ring.counts()
        # 59 filled epochs + the current empty one span the window.
        assert total == 59
        assert bad == 5  # i in {50, 60, 70, 80, 90} still inside
        clock.advance(10_000.0)
        assert ring.counts() == (0, 0)


class TestSummaries:
    def test_percentiles_and_max_track_observations(self):
        clock = FakeClock()
        ring = make_ring(clock=clock)
        for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 200):
            ring.observe(ms / 1000.0, trace_id=f"t{ms}")
        summary = ring.summary()
        assert summary["count"] == 10
        assert summary["max"] == 0.200
        assert summary["slowest_trace_id"] == "t200"
        # Histogram estimates are upper bounds, clamped to max.
        assert summary["p50"] >= 0.005
        assert summary["p99"] <= summary["max"]
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_percentile_never_exceeds_exact_max(self):
        ring = make_ring()
        ring.observe(0.0001)  # far below the first bucket bound
        summary = ring.summary()
        assert summary["p50"] == summary["max"] == 0.0001

    def test_error_rate(self):
        ring = make_ring()
        for i in range(8):
            ring.observe(0.001, error=(i < 2))
        assert ring.summary()["error_rate"] == 0.25

    def test_rate_divides_by_full_span(self):
        ring = make_ring(width=1.0, n=60)
        for _ in range(120):
            ring.observe(0.001)
        assert ring.summary()["rate"] == 2.0

    def test_slowest_trace_survives_none_trace_ids(self):
        # The anonymous outlier must not inherit a wrong trace id,
        # whichever order the two requests arrive in.
        for first, second in (
            ((0.500, None), (0.100, "fast")),
            ((0.100, "fast"), (0.500, None)),
        ):
            ring = make_ring()
            for seconds, trace_id in (first, second):
                ring.observe(seconds, trace_id=trace_id)
            summary = ring.summary()
            assert summary["max"] == 0.500
            assert summary["slowest_trace_id"] is None


class TestWindowedMetrics:
    def test_layout_names(self):
        wm = WindowedMetrics(clock=FakeClock())
        assert set(wm.summary()) == {name for name, _, _ in WINDOW_LAYOUT}

    def test_fan_out_hits_every_ring(self):
        clock = FakeClock()
        wm = WindowedMetrics(clock=clock)
        wm.observe(0.050, error=True, trace_id="abc")
        for name in ("1m", "5m", "1h"):
            assert wm.summary()[name]["count"] == 1
            assert wm.summary()[name]["slowest_trace_id"] == "abc"

    def test_short_window_forgets_before_long_window(self):
        clock = FakeClock()
        wm = WindowedMetrics(clock=clock)
        wm.observe(0.010)
        clock.advance(90.0)  # past 1m, inside 5m and 1h
        summary = wm.summary()
        assert summary["1m"]["count"] == 0
        assert summary["5m"]["count"] == 1
        assert summary["1h"]["count"] == 1
