"""End-to-end observability of the scoring service.

The acceptance test of tracing lives here: one ``POST /v1/score/batch``
whose rows take several micro-batch passes must come back as a SINGLE
connected span tree — handler thread → engine → batch worker → kernel
— with every parent/child link intact.  Alongside it: the Prometheus
exposition endpoint, fixed-cardinality 404 labels, the structured
access log, and the error accounting after a request is observed.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Tracer, validate_exposition
from repro.obs.prometheus import CONTENT_TYPE
from repro.serving import ScoringService
from tests.serving.conftest import wait_for_queued


def _get(service, path):
    with urllib.request.urlopen(service.url + path, timeout=10) as response:
        return (
            response.status,
            dict(response.headers),
            response.read().decode("utf-8"),
        )


def _post(service, path, payload):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _wait_for_spans(tracer, names, timeout=5.0):
    """Spans finishing on worker threads can trail the HTTP response."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = tracer.finished()
        if names <= {s.name for s in spans}:
            return spans
    raise AssertionError(
        f"expected spans {names}, got "
        f"{sorted({s.name for s in tracer.finished()})}"
    )


def _wait_for_batched_rows(tracer, n_rows, timeout=5.0):
    """Spans once every row's ``engine.batch`` and the request are done.

    The worker closes a batch span after resolving its rows, so the
    last one can trail the HTTP response.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = tracer.finished()
        batched = sum(
            s.attrs["batch_size"] for s in spans if s.name == "engine.batch"
        )
        if batched >= n_rows and "http.request" in {s.name for s in spans}:
            return spans
        time.sleep(0.005)
    raise AssertionError(f"expected {n_rows} batched rows in finished spans")


class TestBatchRequestTrace:
    def test_multi_pass_batch_post_yields_one_connected_trace(
        self, model_dir, segment_rows
    ):
        """60 rows at ``max_batch=32`` take at least two passes; every
        pass must hang off the one request's ``engine.score_many``."""
        assert len(segment_rows) == 60
        tracer = Tracer(max_spans=None)
        with ScoringService(
            model_dir, port=0, max_batch=32, cache_size=0, tracer=tracer
        ).start() as service:
            out = _post(
                service, "/v1/score/batch", {"rows": segment_rows}
            )
            assert out["count"] == len(segment_rows)
            spans = _wait_for_batched_rows(tracer, len(segment_rows))

        # SINGLE connected trace: one trace id, one root, no orphans.
        assert len({s.trace_id for s in spans}) == 1
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["http.request"]
        assert all(
            s.parent_id in by_id for s in spans if s.parent_id is not None
        )

        def parent_of(span):
            return by_id[span.parent_id]

        # request → score_many → every batch pass, link by link.
        many = [s for s in spans if s.name == "engine.score_many"]
        assert len(many) == 1
        assert parent_of(many[0]) is roots[0]
        batches = [s for s in spans if s.name == "engine.batch"]
        assert len(batches) >= 2
        assert all(s.parent_id == many[0].span_id for s in batches)
        assert sum(s.attrs["batch_size"] for s in batches) == len(
            segment_rows
        )
        # Each pass scores under its batch; the kernel under the pass.
        score_rows = [s for s in spans if s.name == "engine.score_rows"]
        assert score_rows
        assert all(parent_of(s).name == "engine.batch" for s in score_rows)
        evaluate_spans = [s for s in spans if s.name == "plan.evaluate"]
        assert evaluate_spans
        assert all(
            parent_of(s).name == "engine.score_rows" for s in evaluate_spans
        )


class TestMicroBatchTrace:
    def test_single_score_connects_through_the_batch_worker(
        self, model_dir, segment_rows
    ):
        tracer = Tracer(max_spans=None)
        with ScoringService(
            model_dir, port=0, max_wait_ms=5.0, tracer=tracer
        ).start() as service:
            out = _post(service, "/v1/score", {"row": segment_rows[0]})
            assert 0.0 <= out["probability"] <= 1.0
            spans = _wait_for_spans(
                tracer, {"http.request", "engine.batch", "engine.score_rows"}
            )

        assert len({s.trace_id for s in spans}) == 1
        by_id = {s.span_id: s for s in spans}
        batch_span = next(s for s in spans if s.name == "engine.batch")
        # The batch worker thread has no request context: the link is
        # the shipped _Request.trace_context.
        assert by_id[batch_span.parent_id].name == "http.request"
        assert batch_span.attrs["batch_size"] >= 1
        assert batch_span.attrs["queue_wait_ms"] >= 0.0
        score_span = next(s for s in spans if s.name == "engine.score_rows")
        assert by_id[score_span.parent_id].name == "engine.batch"


class TestCoalescedBatchTrace:
    def test_every_caller_finds_the_batch_and_its_queue_wait(
        self, model_dir, segment_rows, gate_engine
    ):
        tracer = Tracer(max_spans=None)
        with ScoringService(
            model_dir, port=0, cache_size=0, tracer=tracer
        ).start() as service:
            gated = gate_engine(service.engine("cp8"))

            def call(i: int) -> None:
                _post(service, "/v1/score", {"row": segment_rows[i]})

            # Hold the worker in the first request's pass; the next
            # two queue behind it and share one two-caller batch.
            threads = [threading.Thread(target=call, args=(0,))]
            threads[0].start()
            assert gated.in_pass.wait(10.0)
            threads += [
                threading.Thread(target=call, args=(i,)) for i in (1, 2)
            ]
            for t in threads[1:]:
                t.start()
            wait_for_queued(service.engine("cp8"), 2)
            gated.gate.set()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
            # The worker records a batch span after resolving its
            # callers, so it can trail their responses.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                spans = tracer.finished()
                if sum(s.name == "engine.batch" for s in spans) == 2:
                    break
                time.sleep(0.005)
        assert gated.passes == [1, 2]

        requests = {
            s.span_id: s for s in spans if s.name == "http.request"
        }
        assert len(requests) == 3
        # Each request's own span carries its queue wait.
        for request in requests.values():
            assert request.attrs["queue_wait_ms"] >= 0.0
        (shared,) = [
            s
            for s in spans
            if s.name == "engine.batch" and s.attrs["batch_size"] == 2
        ]
        assert shared.attrs["callers"] == 2
        (link,) = shared.attrs["links"]
        # The batch parents onto one caller and links the other, so
        # both requests lead to it.
        assert shared.parent_id in requests
        assert link["span_id"] in requests
        assert link["span_id"] != shared.parent_id
        assert link["trace_id"] == requests[link["span_id"]].trace_id
        (lone,) = [
            s
            for s in spans
            if s.name == "engine.batch" and s.attrs["batch_size"] == 1
        ]
        assert lone.attrs["callers"] == 1
        assert lone.attrs["links"] == []


class TestPrometheusEndpoint:
    def test_exposition_parses_and_carries_traffic(
        self, model_dir, segment_rows
    ):
        with ScoringService(model_dir, port=0).start() as service:
            _post(service, "/v1/score", {"row": segment_rows[0]})
            _get(service, "/healthz")
            status, headers, text = _get(
                service, "/metrics?format=prometheus"
            )
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert validate_exposition(text) > 0
        assert (
            'repro_requests_total{endpoint="POST /v1/score"} 1'
            in text.splitlines()
        )
        assert "repro_engine_rows_scored_total" in text
        assert "repro_uptime_seconds" in text

    def test_json_metrics_remain_the_default(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            status, headers, body = _get(service, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert set(payload) == {
            "endpoints", "engines", "registry", "windows", "build",
        }
        assert payload["build"]["version"]
        assert set(payload["build"]) == {
            "version", "python", "numpy", "native_kernel",
        }

    def test_build_info_in_prometheus_exposition(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            _, _, text = _get(service, "/metrics?format=prometheus")
        assert validate_exposition(text) > 0
        (line,) = [
            l for l in text.splitlines()
            if l.startswith("repro_build_info{")
        ]
        assert line.endswith(" 1")
        for label in ("version=", "python=", "numpy=", "native_kernel="):
            assert label in line

    def test_unknown_format_is_a_request_error(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(service, "/metrics?format=xml")
            assert excinfo.value.code == 400


class TestUnknownPathLabels:
    def test_probe_scans_share_one_metric_series(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            for i in range(3):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(service, f"/probe/{i}")
                assert excinfo.value.code == 404
            summary = service.metrics.summary()
        assert summary["GET [unknown]"]["count"] == 3
        assert summary["GET [unknown]"]["error_types"] == {"NotFound": 3}
        assert not any("/probe/" in endpoint for endpoint in summary)


class TestAccessLog:
    def test_one_json_line_per_request_with_trace_join(
        self, model_dir, segment_rows, tmp_path
    ):
        log_path = tmp_path / "access.jsonl"
        tracer = Tracer(max_spans=None)
        with ScoringService(
            model_dir, port=0, tracer=tracer, access_log=log_path
        ).start() as service:
            # One keep-alive connection: its handler thread writes a
            # request's log line before it reads the next request, so
            # the line order is the request order by construction.
            connection = http.client.HTTPConnection(
                service.host, service.port, timeout=30
            )
            try:
                for method, path, payload, status in (
                    ("GET", "/healthz", None, 200),
                    ("POST", "/v1/score", {"row": segment_rows[0]}, 200),
                    ("GET", "/nope", None, 404),
                ):
                    connection.request(
                        method,
                        path,
                        body=None if payload is None else json.dumps(payload),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                    assert response.status == status
            finally:
                connection.close()

        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert [(l["method"], l["path"], l["status"]) for l in lines] == [
            ("GET", "/healthz", 200),
            ("POST", "/v1/score", 200),
            ("GET", "/nope", 404),
        ]
        # The line schema is pinned: downstream log pipelines key on
        # these exact field names.
        expected_fields = {
            "ts", "method", "path", "status", "response_bytes",
            "duration_ms", "queue_wait_ms", "trace_id", "error_type",
        }
        for line in lines:
            assert set(line) == expected_fields
            assert line["response_bytes"] > 0
            assert line["duration_ms"] >= 0.0
            assert line["ts"].startswith("20")
        assert lines[0]["error_type"] is None
        assert lines[2]["error_type"] == "NotFound"
        # Only the scoring request passed through the micro-batch
        # queue; plain GETs never queue, so their wait is null.
        assert lines[0]["queue_wait_ms"] is None
        assert lines[1]["queue_wait_ms"] >= 0.0
        assert lines[2]["queue_wait_ms"] is None
        # Each line's trace id joins to that request's span tree.
        request_spans = {
            s.attrs["path"]: s.trace_id
            for s in tracer.finished()
            if s.name == "http.request"
        }
        for line in lines:
            assert line["trace_id"] == request_spans[line["path"]]

    def test_untraced_service_logs_null_trace_ids(self, model_dir, tmp_path):
        log_path = tmp_path / "access.jsonl"
        with ScoringService(
            model_dir, port=0, access_log=log_path
        ).start() as service:
            _get(service, "/healthz")
        (line,) = [
            json.loads(l) for l in log_path.read_text().splitlines()
        ]
        assert line["trace_id"] is None


class TestRespondFailureAccounting:
    def test_serialisation_failure_still_counts_as_an_error(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            # A payload json.dumps cannot serialise: the failure happens
            # in _respond, after metrics.timed-equivalent observation.
            service.handle_get = lambda path, query=None: (
                200,
                {"oops": object()},
            )
            with pytest.raises(
                (
                    urllib.error.URLError,
                    http.client.HTTPException,
                    ConnectionError,
                )
            ):
                _get(service, "/healthz")
            summary = service.metrics.summary()["GET /healthz"]
        # Observed once as a (200) request, then the write failure is
        # recorded on top — visible, not double-counted.
        assert summary["count"] == 1
        assert summary["errors"] == 1
        assert summary["error_types"] == {"TypeError": 1}
