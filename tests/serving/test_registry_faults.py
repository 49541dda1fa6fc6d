"""Fault injection: artefact corruption under a *running* registry.

The satellite scenarios: a deploy goes wrong mid-run — checksum
corruption, a truncated write, a rollback to a stale format version —
and the engine must keep serving the last-good scorer while counting
the failure in a typed ``/metrics`` counter.  Only artefacts that
never had a good version stay loud.
"""

import json
import os
import shutil
import urllib.request

import pytest

from repro.core.deployment import payload_checksum
from repro.exceptions import ServingError
from repro.obs.prometheus import validate_exposition
from repro.serving import ScorerRegistry, ScoringService


def _copy_artefact(model_dir, tmp_path, name="cp8.json"):
    target = tmp_path / "models"
    target.mkdir()
    shutil.copy(model_dir / name, target / name)
    return target


def _bump_mtime(path):
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


def _corrupt_checksum(path):
    data = json.loads(path.read_text())
    data["threshold"] = 4  # tamper without re-checksumming
    path.write_text(json.dumps(data, allow_nan=True))
    _bump_mtime(path)


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    _bump_mtime(path)


def _rollback_version(path):
    data = json.loads(path.read_text())
    data["format_version"] = 0
    path.write_text(json.dumps(data, allow_nan=True))
    _bump_mtime(path)


def _rechecksummed(path, edit):
    """Edit the artefact, then re-checksum it: only the load can tell."""
    data = json.loads(path.read_text())
    edit(data)
    data["checksum"] = payload_checksum(data)
    path.write_text(json.dumps(data, allow_nan=True))
    _bump_mtime(path)


def _drop_tree_branches(path):
    _rechecksummed(path, lambda data: data["model"]["tree"].pop("branches"))


def _non_canonical_tree(path):
    def mismatch_thresholds(data):
        stack = [data["model"]["tree"]]
        while stack:
            node = stack.pop()
            for branch in node["branches"]:
                if branch["kind"] == "le":
                    branch["threshold"] += 1.0
                    return
                stack.append(branch["child"])

    _rechecksummed(path, mismatch_thresholds)


class TestKeepLastGood:
    @pytest.mark.parametrize(
        "corrupt, error_type",
        [
            (_corrupt_checksum, "checksum_mismatch"),
            (_truncate, "invalid_json"),
            (_rollback_version, "format_version"),
            (_drop_tree_branches, "load_error"),
            (_non_canonical_tree, "load_error"),
        ],
        ids=[
            "checksum", "truncated", "rollback", "tree-branches-dropped",
            "non-canonical-tree",
        ],
    )
    def test_corruption_mid_run_keeps_serving(
        self, model_dir, tmp_path, corrupt, error_type
    ):
        target = _copy_artefact(model_dir, tmp_path)
        registry = ScorerRegistry(target)
        good = registry.get("cp8")

        corrupt(target / "cp8.json")

        # The lookup survives and serves the last-good entry...
        entry = registry.get("cp8")
        assert entry is good
        assert entry.scorer.threshold == 8
        # ...with the failure typed and counted.
        assert registry.reload_errors == {("cp8", error_type): 1}
        assert registry.stats()["degraded"] == ["cp8"]

    def test_bad_file_parsed_once_not_per_request(
        self, model_dir, tmp_path
    ):
        target = _copy_artefact(model_dir, tmp_path)
        registry = ScorerRegistry(target)
        registry.get("cp8")
        _corrupt_checksum(target / "cp8.json")
        for _ in range(5):
            registry.get("cp8")
        # One failed load attempt, not five: the bad stat is pinned.
        assert registry.reload_errors[("cp8", "checksum_mismatch")] == 1

    def test_recovery_when_good_file_returns(
        self, model_dir, tmp_path
    ):
        target = _copy_artefact(model_dir, tmp_path)
        registry = ScorerRegistry(target)
        registry.get("cp8")
        path = target / "cp8.json"
        good_bytes = path.read_bytes()
        _truncate(path)
        registry.get("cp8")
        assert registry.stats()["degraded"] == ["cp8"]

        path.write_bytes(good_bytes)
        _bump_mtime(path)
        entry = registry.get("cp8")
        assert entry.scorer.threshold == 8
        assert registry.stats()["degraded"] == []
        assert registry.n_loads == 2  # initial + recovery

    def test_refresh_keeps_last_good_too(self, model_dir, tmp_path):
        target = _copy_artefact(model_dir, tmp_path)
        registry = ScorerRegistry(target)
        registry.refresh()
        _rollback_version(target / "cp8.json")
        assert registry.refresh() == []  # nothing newly loaded
        assert registry.get("cp8").scorer.threshold == 8
        assert registry.reload_errors == {("cp8", "format_version"): 1}

    def test_new_artefact_failures_stay_loud(self, model_dir, tmp_path):
        target = _copy_artefact(model_dir, tmp_path)
        (target / "broken.json").write_text("{not json")
        registry = ScorerRegistry(target)
        with pytest.raises(ServingError, match="broken"):
            registry.refresh()


class TestServiceUnderFault:
    def test_engine_serves_and_metrics_count_the_fault(
        self, model_dir, tmp_path, segment_rows
    ):
        target = _copy_artefact(model_dir, tmp_path)
        with ScoringService(target, port=0).start() as service:

            def post_score():
                request = urllib.request.Request(
                    service.url + "/v1/score",
                    data=json.dumps({"row": segment_rows[0]}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as r:
                    return json.loads(r.read())

            before = post_score()
            _corrupt_checksum(target / "cp8.json")
            after = post_score()
            # Same model, same score: the corrupt deploy never reached
            # the engine.
            assert after["threshold"] == before["threshold"] == 8
            assert after["probability"] == before["probability"]

            with urllib.request.urlopen(
                service.url + "/metrics", timeout=10
            ) as r:
                metrics = json.loads(r.read())
            assert metrics["registry"]["reload_errors"] == {
                "cp8/checksum_mismatch": 1
            }
            assert metrics["registry"]["degraded"] == ["cp8"]

            with urllib.request.urlopen(
                service.url + "/metrics?format=prometheus", timeout=10
            ) as r:
                text = r.read().decode()
            assert validate_exposition(text) > 0
            assert (
                'repro_registry_reload_errors_total{model="cp8",'
                'error_type="checksum_mismatch"} 1'
                in text.splitlines()
            )
            assert "repro_registry_degraded_models 1" in text.splitlines()
