"""In-process tests of the HTTP scoring service.

The acceptance contract of the serving subsystem is exercised here:
``POST /v1/score`` must return exactly the probabilities that the
``repro-study score`` CLI prints for the same segments, and concurrent
load must be observably micro-batched (model passes with batch > 1).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.datatable import write_csv
from repro.exceptions import ServingError
from repro.serving import ScoringService
from tests.serving.conftest import wait_for_queued


@pytest.fixture()
def service(model_dir):
    with ScoringService(model_dir, port=0, max_wait_ms=25.0).start() as svc:
        yield svc


def _get(service, path):
    with urllib.request.urlopen(service.url + path, timeout=10) as response:
        return json.loads(response.read())


def _post(service, path, payload):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _post_error(service, path, payload) -> tuple[int, dict]:
    try:
        _post(service, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error")


class TestEndpoints:
    def test_healthz(self, service):
        body = _get(service, "/healthz")
        assert body["status"] == "ok"
        assert body["models"] == ["cp8"]
        assert body["uptime_seconds"] >= 0

    def test_models_lists_artefacts(self, service, serving_scorer):
        body = _get(service, "/models")
        (model,) = body["models"]
        assert model["name"] == "cp8"
        assert model["key"] == "cp8@v1"
        assert model["checksum"] == serving_scorer.to_dict()["checksum"]
        assert model["threshold"] == 8
        assert set(model["validation"]) == {"mcpv", "kappa", "roc_area"}

    def test_score_single(self, service, serving_scorer, segment_rows):
        body = _post(service, "/v1/score", {"row": segment_rows[0]})
        assert body["model"] == "cp8"
        assert body["threshold"] == 8
        assert 0.0 <= body["probability"] <= 1.0
        assert body["crash_prone"] == (body["probability"] >= 0.5)

    def test_score_batch(self, service, segment_rows):
        body = _post(
            service, "/v1/score/batch", {"rows": segment_rows[:8]}
        )
        assert body["count"] == 8
        assert len(body["results"]) == 8

    def test_custom_cutoff(self, service, segment_rows):
        strict = _post(
            service, "/v1/score", {"row": segment_rows[0], "cutoff": 1.0}
        )
        lax = _post(
            service, "/v1/score", {"row": segment_rows[0], "cutoff": 0.0}
        )
        assert strict["crash_prone"] is False
        assert lax["crash_prone"] is True

    def test_metrics_record_requests(self, service, segment_rows):
        _post(service, "/v1/score", {"row": segment_rows[0]})
        _get(service, "/healthz")
        body = _get(service, "/metrics")
        assert body["endpoints"]["POST /v1/score"]["count"] == 1
        assert body["endpoints"]["GET /healthz"]["count"] == 1
        record = body["endpoints"]["POST /v1/score"]
        assert record["p50"] <= record["p99"]
        (engine_stats,) = body["engines"].values()
        assert engine_stats["rows_scored"] == 1

    def test_default_model_when_single(self, service, segment_rows):
        # No "model" key: the only registered scorer is implied.
        body = _post(service, "/v1/score", {"row": segment_rows[0]})
        assert body["model"] == "cp8"


class TestErrors:
    def test_unknown_route_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service, "/v2/nothing")
        assert excinfo.value.code == 404

    def test_unknown_model_400(self, service, segment_rows):
        code, body = _post_error(
            service, "/v1/score", {"model": "cp99", "row": segment_rows[0]}
        )
        assert code == 400
        assert "cp99" in body["error"] and "cp8" in body["error"]

    def test_invalid_row_400_names_columns(self, service):
        code, body = _post_error(service, "/v1/score", {"row": {"x": 1}})
        assert code == 400
        assert "missing input column" in body["error"]

    def test_missing_row_400(self, service):
        code, body = _post_error(service, "/v1/score", {})
        assert code == 400
        assert "'row'" in body["error"]

    def test_invalid_json_400(self, service):
        request = urllib.request.Request(
            service.url + "/v1/score",
            data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_cutoff_400(self, service, segment_rows):
        code, body = _post_error(
            service,
            "/v1/score",
            {"row": segment_rows[0], "cutoff": 7},
        )
        assert code == 400 and "cutoff" in body["error"]

    def test_oversized_body_413(self, model_dir, segment_rows):
        with ScoringService(
            model_dir, port=0, max_body_bytes=2048
        ).start() as service:
            # Far past the limit: ~60 rows of ~10 columns of JSON.
            code, body = _post_error(
                service, "/v1/score/batch", {"rows": segment_rows}
            )
            assert code == 413
            assert "exceeds" in body["error"] and "2048" in body["error"]
            assert service.metrics.error_count("POST /v1/score/batch") == 1
            # The connection-refusing path must not wedge the service.
            ok = _post(service, "/v1/score", {"row": segment_rows[0]})
            assert 0.0 <= ok["probability"] <= 1.0

    def test_body_limit_zero_disables_the_check(self, model_dir, segment_rows):
        with ScoringService(
            model_dir, port=0, max_body_bytes=0
        ).start() as service:
            body = _post(service, "/v1/score/batch", {"rows": segment_rows})
            assert body["count"] == len(segment_rows)

    def test_negative_body_limit_rejected(self, model_dir):
        with pytest.raises(ServingError, match="max_body_bytes"):
            ScoringService(model_dir, max_body_bytes=-1)

    def test_invalid_batch_row_queues_nothing(self, service, segment_rows):
        """A batch with one bad row is rejected before any of its rows
        is queued: no pass runs for the valid rows ahead of it."""
        rows = [dict(row) for row in segment_rows[:10]]
        del rows[-1]["skid_resistance_f60"]
        engine = service.engine("cp8")
        before = engine.stats()
        code, body = _post_error(service, "/v1/score/batch", {"rows": rows})
        assert code == 400
        assert "row 9 " in body["error"]
        # close() drains the queue, so anything queued has been scored.
        engine.close()
        after = engine.stats()
        assert after["rows_scored"] == before["rows_scored"]
        assert after["batches"] == before["batches"]

    def test_errors_counted_in_metrics(self, service):
        _post_error(service, "/v1/score", {})
        assert service.metrics.error_count("POST /v1/score") == 1

    def test_double_start_rejected(self, service):
        with pytest.raises(ServingError, match="already running"):
            service.start()


class TestEndToEndParity:
    def test_http_scores_match_cli_scores(
        self, model_dir, small_dataset, serving_scorer, tmp_path, capsys
    ):
        """Acceptance: POST /v1/score == `repro-study score` probabilities."""
        segments_csv = tmp_path / "segments.csv"
        write_csv(small_dataset.segment_table.head(25), segments_csv)
        assert main(
            [
                "score",
                str(model_dir / "cp8.json"),
                str(segments_csv),
                "--top", "25",
                "--json",
            ]
        ) == 0
        cli = json.loads(capsys.readouterr().out)
        by_segment = {
            r["segment_id"]: r["probability"] for r in cli["results"]
        }
        assert len(by_segment) == 25

        expected_inputs = list(serving_scorer.input_schema())
        with ScoringService(model_dir, port=0).start() as service:
            for i in range(25):
                row = small_dataset.segment_table.row(i)
                body = _post(
                    service,
                    "/v1/score",
                    {"row": {k: row[k] for k in expected_inputs}},
                )
                assert body["probability"] == by_segment[row["segment_id"]]

    def test_concurrent_load_is_micro_batched(
        self, model_dir, segment_rows, gate_engine
    ):
        """Acceptance: concurrent requests share model passes."""
        with ScoringService(
            model_dir, port=0, max_batch=16, max_wait_ms=100.0
        ).start() as service:
            engine = service.engine("cp8")
            gated = gate_engine(engine)
            results: list[dict] = []
            errors: list[Exception] = []

            def call(i: int) -> None:
                try:
                    results.append(
                        _post(
                            service,
                            "/v1/score/batch",
                            {"rows": segment_rows[3 * i : 3 * i + 3]},
                        )
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            # Hold the worker inside the first request's pass so the
            # other eleven queue behind it.
            threads = [threading.Thread(target=call, args=(0,))]
            threads[0].start()
            assert gated.in_pass.wait(10.0)
            threads += [
                threading.Thread(target=call, args=(i,)) for i in range(1, 12)
            ]
            for t in threads[1:]:
                t.start()
            wait_for_queued(engine, 33)
            gated.gate.set()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
            assert not errors
            assert len(results) == 12
            # One pass held more rows than one request carries.
            assert engine.max_batch_observed > 3
            assert engine.batched_rows == 36


class TestHotReloadThroughService:
    def test_rewritten_artefact_swaps_engine(
        self, model_dir, serving_scorer, tmp_path, segment_rows
    ):
        import os
        import shutil

        deploy = tmp_path / "deploy"
        deploy.mkdir()
        shutil.copy(model_dir / "cp8.json", deploy / "cp8.json")
        with ScoringService(deploy, port=0, max_wait_ms=5.0).start() as service:
            first = _post(service, "/v1/score", {"row": segment_rows[0]})
            old_engine = service.engine("cp8")

            payload = serving_scorer.to_dict()
            payload["metadata"] = dict(payload["metadata"], revision=2)
            del payload["checksum"]
            from repro.core.deployment import payload_checksum

            payload["checksum"] = payload_checksum(payload)
            path = deploy / "cp8.json"
            path.write_text(json.dumps(payload, allow_nan=True))
            stat = path.stat()
            os.utime(
                path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000)
            )

            second = _post(service, "/v1/score", {"row": segment_rows[0]})
            new_engine = service.engine("cp8")
            assert new_engine is not old_engine
            assert new_engine.scorer.metadata["revision"] == 2
            # Same model weights → same probability either side of reload.
            assert second["probability"] == first["probability"]
