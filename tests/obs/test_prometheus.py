"""Prometheus exposition: golden format, renderer/validator agreement."""

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import render_prometheus, validate_exposition, CONTENT_TYPE
from repro.serving.metrics import BUCKET_BOUNDS, RequestMetrics


def _snapshot_with_traffic() -> RequestMetrics:
    metrics = RequestMetrics()
    for seconds in (0.002, 0.004, 0.03, 0.2):
        metrics.observe("POST /v1/score", seconds)
    metrics.observe(
        "POST /v1/score", 0.001, error=True, error_type="ServingError"
    )
    metrics.observe("GET /healthz", 0.0005)
    metrics.record_error("POST /v1/score", "BrokenPipeError")
    return metrics


ENGINE_STATS = {
    "cp8": {
        "rows_scored": 120, "batches": 7, "max_batch_observed": 32,
        "mean_batch_size": 17.1, "cache_hits": 40, "cache_misses": 80,
        "cache_size": 64,
    }
}


class TestRenderPrometheus:
    def test_output_validates(self):
        text = render_prometheus(
            _snapshot_with_traffic().prometheus_snapshot(),
            engines=ENGINE_STATS,
            uptime_seconds=12.5,
            n_models=1,
        )
        assert validate_exposition(text) > 0
        assert text.endswith("\n")

    def test_golden_minimal_exposition(self):
        metrics = RequestMetrics()
        metrics.observe("GET /healthz", 0.0005)
        text = render_prometheus(metrics.prometheus_snapshot())
        lines = text.splitlines()
        assert lines[0] == (
            "# HELP repro_requests_total Requests handled per endpoint."
        )
        assert lines[1] == "# TYPE repro_requests_total counter"
        assert 'repro_requests_total{endpoint="GET /healthz"} 1' in lines
        # Every bucket is cumulative from the first bound on.
        assert (
            'repro_request_duration_seconds_bucket'
            '{endpoint="GET /healthz",le="0.001"} 1'
        ) in lines
        assert (
            'repro_request_duration_seconds_bucket'
            '{endpoint="GET /healthz",le="+Inf"} 1'
        ) in lines
        assert (
            'repro_request_duration_seconds_count{endpoint="GET /healthz"} 1'
        ) in lines

    def test_emits_one_bucket_per_bound_plus_inf(self):
        metrics = RequestMetrics()
        metrics.observe("GET /healthz", 0.0005)
        text = render_prometheus(metrics.prometheus_snapshot())
        n_buckets = sum(
            1
            for line in text.splitlines()
            if line.startswith("repro_request_duration_seconds_bucket")
        )
        assert n_buckets == len(BUCKET_BOUNDS) + 1

    def test_error_types_become_labelled_series(self):
        text = render_prometheus(_snapshot_with_traffic().prometheus_snapshot())
        assert (
            'repro_request_errors_total{endpoint="POST /v1/score",'
            'error_type="BrokenPipeError"} 1'
        ) in text.splitlines()
        assert (
            'repro_request_errors_total{endpoint="POST /v1/score",'
            'error_type="ServingError"} 1'
        ) in text.splitlines()

    def test_engine_counters_and_gauges(self):
        text = render_prometheus(
            _snapshot_with_traffic().prometheus_snapshot(),
            engines=ENGINE_STATS,
        )
        lines = text.splitlines()
        assert 'repro_engine_rows_scored_total{model="cp8"} 120' in lines
        assert 'repro_engine_cache_size{model="cp8"} 64' in lines
        assert 'repro_engine_batches_total{model="cp8"} 7' in lines

    def test_label_values_are_escaped(self):
        metrics = RequestMetrics()
        metrics.observe('odd "endpoint"\\', 0.001)
        text = render_prometheus(metrics.prometheus_snapshot())
        assert validate_exposition(text) > 0
        assert '\\"endpoint\\"' in text

    def test_deterministic_output(self):
        snapshot = _snapshot_with_traffic().prometheus_snapshot()
        assert render_prometheus(snapshot) == render_prometheus(snapshot)

    def test_content_type_names_exposition_format(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestValidateExposition:
    def test_counts_samples(self):
        text = (
            "# HELP repro_models Registered scorer artefacts.\n"
            "# TYPE repro_models gauge\n"
            "repro_models 2\n"
        )
        assert validate_exposition(text) == 1

    @pytest.mark.parametrize(
        "text, match",
        [
            ("repro_models 2\n", "no preceding # TYPE"),
            ("# TYPE repro_models gauge\nrepro_models\n", "malformed sample"),
            ("# TYPE repro_models gauge\nrepro_models two\n",
             "malformed sample"),
            ("# BAD repro_models\n", "malformed comment"),
            ("# TYPE repro_models gauge\nrepro_models 2", "newline"),
            ('# TYPE m gauge\nm{label=unquoted} 1\n', "malformed label"),
        ],
    )
    def test_rejects_malformed_text(self, text, match):
        with pytest.raises(ObservabilityError, match=match):
            validate_exposition(text)

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ObservabilityError, match="not cumulative"):
            validate_exposition(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 4\n"
        )
        with pytest.raises(ObservabilityError, match="!= _count"):
            validate_exposition(text)

    def test_rejects_histogram_without_inf_bucket(self):
        text = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ObservabilityError, match="no le"):
            validate_exposition(text)
