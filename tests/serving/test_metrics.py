"""Tests for per-endpoint request metrics."""

import threading

import pytest

from repro.serving import RequestMetrics
from repro.obs.histogram import N_BINS
from repro.serving.metrics import BUCKET_BOUNDS


class TestObserve:
    def test_counts_per_endpoint(self):
        metrics = RequestMetrics()
        for _ in range(3):
            metrics.observe("POST /v1/score", 0.01)
        metrics.observe("GET /healthz", 0.001)
        assert metrics.request_count("POST /v1/score") == 3
        assert metrics.request_count("GET /healthz") == 1
        assert metrics.request_count() == 4

    def test_error_counter(self):
        metrics = RequestMetrics()
        metrics.observe("POST /v1/score", 0.01)
        metrics.observe("POST /v1/score", 0.01, error=True)
        assert metrics.error_count("POST /v1/score") == 1
        assert metrics.error_count() == 1

    def test_thread_safety(self):
        metrics = RequestMetrics()

        def hammer():
            for _ in range(200):
                metrics.observe("POST /v1/score", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.request_count("POST /v1/score") == 1600


class TestSummaries:
    def test_percentiles_ordered(self):
        metrics = RequestMetrics()
        for ms in range(1, 101):
            metrics.observe("POST /v1/score", ms / 1000.0)
        record = metrics.summary()["POST /v1/score"]
        assert record["count"] == 100
        assert record["p50"] == 0.050
        assert record["p95"] == 0.095
        assert record["p99"] == 0.099
        assert record["max"] == 0.100
        assert record["p50"] <= record["p95"] <= record["p99"] <= record["max"]

    def test_render_contains_endpoints(self):
        metrics = RequestMetrics()
        metrics.observe("POST /v1/score", 0.02)
        metrics.observe("GET /healthz", 0.001)
        text = metrics.render()
        assert "POST /v1/score" in text
        assert "p95 ms" in text


class TestBoundedMemory:
    """The unbounded-memory fix: storage stays capped, counters exact."""

    def test_storage_is_bounded_and_counters_stay_exact(self):
        metrics = RequestMetrics()
        n = 1536
        for i in range(n):
            metrics.observe("POST /v1/score", (i % 100 + 1) / 1000.0)
        record = metrics._endpoints["POST /v1/score"]
        # One fixed bin array, however many requests arrive.
        assert record.latency._bins.shape == (N_BINS,)
        summary = metrics.summary()["POST /v1/score"]
        assert summary["count"] == n
        assert summary["max"] == 0.100
        assert 0.001 <= summary["p50"] <= summary["p95"] <= 0.100


class TestRecordError:
    def test_counts_without_a_latency_observation(self):
        metrics = RequestMetrics()
        metrics.observe("GET /healthz", 0.001)
        metrics.record_error("GET /healthz", "BrokenPipeError")
        summary = metrics.summary()["GET /healthz"]
        assert summary["count"] == 1
        assert summary["errors"] == 1
        assert summary["error_types"] == {"BrokenPipeError": 1}

    def test_errors_may_exceed_count(self):
        metrics = RequestMetrics()
        metrics.record_error("GET /healthz", "TypeError")
        assert metrics.error_count("GET /healthz") == 1
        assert metrics.request_count("GET /healthz") == 0


class TestPrometheusSnapshot:
    def test_buckets_are_cumulative(self):
        metrics = RequestMetrics()
        for seconds in (0.0005, 0.002, 0.002, 0.03, 99.0):
            metrics.observe("e", seconds)
        snapshot = metrics.prometheus_snapshot()["e"]
        assert snapshot["count"] == 5
        assert snapshot["sum_seconds"] == pytest.approx(99.0345)
        bounds = [bound for bound, _ in snapshot["buckets"]]
        assert bounds == list(BUCKET_BOUNDS)
        counts = [n for _, n in snapshot["buckets"]]
        assert counts == sorted(counts)
        # 99.0 s lands beyond every finite bound: only the renderer's
        # +Inf bucket (== count) covers it.
        assert counts[-1] == 4

    def test_error_types_included(self):
        metrics = RequestMetrics()
        metrics.observe("e", 0.01, error=True, error_type="ServingError")
        snapshot = metrics.prometheus_snapshot()["e"]
        assert snapshot["errors"] == 1
        assert snapshot["error_types"] == {"ServingError": 1}
