"""End-to-end runner tests against an in-process scoring service.

Short measured windows (~1 s) keep this inside the tier-1 budget; the
sustained 64-thread version lives in the slow-marked stress test.
"""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.loadtest.runner import LoadTest
from repro.obs import Tracer
from repro.serving import ScoringService


@pytest.fixture()
def service(loadtest_model_dir):
    service = ScoringService(
        loadtest_model_dir, port=0, tracer=Tracer(max_spans=None)
    ).start()
    yield service
    service.close()


class TestClosedLoop:
    def test_full_report_with_parity_and_scrapes(self, service, request_rows):
        report = LoadTest(
            service.url,
            request_rows,
            service=service,
            profile="mixed",
            clients=3,
            duration=1.0,
            warmup=0.3,
            seed=7,
            scrape_interval=0.2,
        ).run()
        assert report.arrival == "closed"
        assert report.total_requests > 0
        assert report.total_errors == 0
        assert report.warmup_requests > 0
        # Count parity: the server's own counters moved by exactly the
        # requests this client observed.
        assert report.parity_ok
        assert {c.endpoint for c in report.parity} == {
            "POST /v1/score",
            "POST /v1/score/batch",
            "GET /models",
        }
        # Every scrape validated; the final one always runs.
        assert report.n_scrapes >= 1
        assert report.scrape_samples > 0

    def test_slowest_have_trace_ids_and_waterfall(
        self, service, request_rows
    ):
        report = LoadTest(
            service.url,
            request_rows,
            service=service,
            profile="score",
            clients=2,
            duration=0.8,
            warmup=0.2,
            seed=7,
            slowest_k=3,
        ).run()
        assert 1 <= len(report.slowest) <= 3
        assert all(r.trace_id for r in report.slowest)
        assert report.waterfall is not None
        assert "http.request" in report.waterfall

    def test_render_and_to_dict(self, service, request_rows):
        report = LoadTest(
            service.url,
            request_rows,
            service=service,
            profile="score",
            clients=2,
            duration=0.6,
            warmup=0.0,
            seed=7,
        ).run()
        text = report.render()
        assert "Load test: profile score" in text
        assert "parity POST /v1/score" in text
        assert "prometheus scrapes" in text
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["parity_ok"] is True
        assert payload["endpoints"]["POST /v1/score"]["requests"] > 0


class TestOpenLoop:
    def test_fixed_rate_sends_the_scheduled_count(
        self, service, request_rows
    ):
        report = LoadTest(
            service.url,
            request_rows,
            service=service,
            profile="score",
            clients=4,
            duration=1.0,
            rate=40.0,
            arrival="fixed",
            warmup=0.2,
            seed=7,
        ).run()
        assert report.arrival == "fixed"
        # rate * duration requests, all of them sent and answered.
        assert report.total_requests == 40
        assert report.parity_ok
        assert report.lateness_p95_ms >= 0.0
        assert "schedule lateness" in report.render()

    def test_no_url_service_means_no_waterfall(
        self, service, request_rows
    ):
        report = LoadTest(
            service.url,
            request_rows,
            profile="score",
            clients=2,
            duration=0.5,
            warmup=0.0,
            seed=7,
        ).run()
        assert report.waterfall is None
        assert report.parity_ok


class TestValidation:
    def test_bad_clients(self, request_rows):
        with pytest.raises(ConfigurationError, match="clients"):
            LoadTest("http://127.0.0.1:1", request_rows, clients=0)

    def test_bad_duration(self, request_rows):
        with pytest.raises(ConfigurationError, match="duration"):
            LoadTest("http://127.0.0.1:1", request_rows, duration=0)

    def test_unknown_profile(self, request_rows):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            LoadTest("http://127.0.0.1:1", request_rows, profile="nope")
