"""Tests for the deployable crash-proneness scorer."""

import csv
import json

import numpy as np
import pytest

from repro.core import CrashPronenessScorer
from repro.core.deployment import payload_checksum
from repro.datatable import read_csv, write_csv
from repro.exceptions import ColumnTypeError, ConfigurationError, ReproError
from repro.mining.tree import TreePlan
from repro.roads import QDTMRSyntheticGenerator, small_config
from repro.serving import ScoringEngine


@pytest.fixture(scope="module")
def scorer(small_dataset):
    return CrashPronenessScorer.train(
        small_dataset.crash_instances,
        threshold=8,
        seed=4,
        metadata={"note": "test"},
    )


class TestTraining:
    def test_validation_measures_recorded(self, scorer):
        assert set(scorer.validation) >= {"mcpv", "kappa", "roc_area"}
        assert 0 < scorer.validation["roc_area"] <= 1

    def test_metadata_carries_seed(self, scorer):
        assert scorer.metadata["seed"] == 4
        assert scorer.metadata["note"] == "test"

    def test_describe(self, scorer):
        text = scorer.describe()
        assert "CP-8" in text and "MCPV" in text


class TestScoring:
    def test_score_shape(self, scorer, small_dataset):
        scores = scorer.score(small_dataset.segment_table)
        assert scores.shape == (small_dataset.segment_table.n_rows,)
        assert ((0 <= scores) & (scores <= 1)).all()

    def test_scores_track_actual_counts(self, scorer, small_dataset):
        scores = scorer.score(small_dataset.segment_table)
        counts = small_dataset.segment_table.numeric("segment_crash_count")
        high = scores[counts > 8]
        low = scores[counts == 0]
        assert high.mean() > low.mean() + 0.2

    def test_classify_cutoff(self, scorer, small_dataset):
        strict = scorer.classify(small_dataset.segment_table, cutoff=0.9)
        lax = scorer.classify(small_dataset.segment_table, cutoff=0.1)
        assert strict.sum() <= lax.sum()

    def test_treatment_list_ranked(self, scorer, small_dataset):
        ranked = scorer.treatment_list(small_dataset.segment_table, top=15)
        assert len(ranked) == 15
        probabilities = [s.probability for s in ranked]
        assert probabilities == sorted(probabilities, reverse=True)
        assert [s.rank for s in ranked] == list(range(1, 16))

    def test_treatment_list_requires_segment_id(self, scorer, small_dataset):
        table = small_dataset.segment_table.drop("segment_id")
        with pytest.raises(ReproError, match="segment_id"):
            scorer.treatment_list(table)

    def test_expected_prone_km(self, scorer, small_dataset):
        km = scorer.expected_prone_km(small_dataset.segment_table)
        assert 0 < km < small_dataset.segment_table.n_rows


class TestPersistence:
    def test_save_load_roundtrip(self, scorer, small_dataset, tmp_path):
        path = tmp_path / "scorer.json"
        scorer.save(path)
        clone = CrashPronenessScorer.load(path)
        assert clone.threshold == scorer.threshold
        assert clone.validation == scorer.validation
        assert np.array_equal(
            clone.score(small_dataset.segment_table),
            scorer.score(small_dataset.segment_table),
        )

    def test_roundtrip_scores_bit_identical(self, small_dataset, tmp_path):
        """Scores survive the process boundary bit-for-bit, regression
        tree included."""
        scorer = CrashPronenessScorer.train(
            small_dataset.crash_instances,
            threshold=8,
            seed=4,
            with_regression=True,
        )
        path = tmp_path / "scorer.json"
        scorer.save(path)
        clone = CrashPronenessScorer.load(path)
        table = small_dataset.segment_table
        assert np.array_equal(clone.score(table), scorer.score(table))
        assert clone.regression is not None
        assert np.array_equal(
            clone.score_regression(table), scorer.score_regression(table)
        )
        # A second hop must be byte-stable too (checksums identical).
        path2 = tmp_path / "scorer2.json"
        clone.save(path2)
        assert path.read_text() == path2.read_text()

    def test_regression_absent_by_default(self, scorer, small_dataset):
        assert scorer.regression is None
        with pytest.raises(ReproError, match="with_regression"):
            scorer.score_regression(small_dataset.segment_table)

    def test_version_check(self, scorer):
        data = scorer.to_dict()
        data["format_version"] = 99
        with pytest.raises(ReproError, match="version"):
            CrashPronenessScorer.from_dict(data)

    def test_version_error_names_file(self, scorer, tmp_path):
        path = tmp_path / "stale.json"
        data = scorer.to_dict()
        data["format_version"] = 0
        path.write_text(json.dumps(data, allow_nan=True))
        with pytest.raises(ReproError, match="stale.json"):
            CrashPronenessScorer.load(path)

    def test_missing_file_error_names_file(self, tmp_path):
        with pytest.raises(ReproError, match="nowhere.json"):
            CrashPronenessScorer.load(tmp_path / "nowhere.json")

    def test_corrupt_json_error_names_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{this is not json")
        with pytest.raises(ReproError, match="corrupt.json"):
            CrashPronenessScorer.load(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproError, match="JSON object"):
            CrashPronenessScorer.load(path)

    def test_checksum_embedded_and_verified(self, scorer, tmp_path):
        payload = scorer.to_dict()
        assert payload["checksum"] == payload_checksum(payload)
        path = tmp_path / "tampered.json"
        payload["threshold"] = 99  # tamper after checksumming
        path.write_text(json.dumps(payload, allow_nan=True))
        with pytest.raises(ReproError, match="checksum mismatch"):
            CrashPronenessScorer.load(path)


class TestInputSchema:
    def test_schema_covers_model_inputs(self, scorer):
        schema = scorer.input_schema()
        assert list(schema) == scorer.model.input_names
        assert schema["skid_resistance_f60"] == {"kind": "numeric"}
        assert schema["terrain"]["kind"] == "categorical"
        assert set(schema["terrain"]["levels"]) >= {"flat"}

    def test_schema_persisted_in_artefact(self, scorer, tmp_path):
        path = tmp_path / "scorer.json"
        scorer.save(path)
        data = json.loads(path.read_text())
        assert data["input_schema"] == scorer.input_schema()


def _resave(data: dict, path):
    """Write ``data`` as an artefact, re-checksummed if it had a
    checksum, so only the load itself can refuse it."""
    if "checksum" in data:
        data["checksum"] = payload_checksum(data)
    path.write_text(json.dumps(data, allow_nan=True))
    return path


def _drop_branches(data):
    del data["model"]["tree"]["branches"]


def _drop_config(data):
    del data["model"]["config"]


def _drop_threshold(data):
    del data["threshold"]


def _drop_tree_and_checksum(data):
    del data["model"]["tree"]
    del data["checksum"]


def _null_branch_child(data):
    data["model"]["tree"]["branches"][0]["child"] = None


class TestMalformedArtefacts:
    """A checksum-consistent artefact of the wrong shape is a
    ReproError naming the file, never a raw KeyError or TypeError (the
    registry keeps last-good only for ReproErrors)."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_branches,
            _drop_config,
            _drop_threshold,
            _drop_tree_and_checksum,
            _null_branch_child,
        ],
        ids=[
            "tree-branches",
            "config",
            "threshold",
            "tree-without-checksum",
            "null-branch-child",
        ],
    )
    def test_wrong_shape_is_a_repro_error_naming_the_file(
        self, scorer, tmp_path, corrupt
    ):
        data = scorer.to_dict()
        corrupt(data)
        path = _resave(data, tmp_path / "malformed.json")
        with pytest.raises(ReproError, match="malformed.json") as info:
            CrashPronenessScorer.load(path)
        assert not isinstance(info.value, (KeyError, TypeError))

    def test_configuration_errors_pass_through(self, scorer, tmp_path):
        data = scorer.to_dict()
        data["model"]["config"]["min_leaf"] = 0
        path = _resave(data, tmp_path / "bad_config.json")
        with pytest.raises(ConfigurationError, match="min_leaf"):
            CrashPronenessScorer.load(path)


@pytest.fixture(scope="module")
def mixed_scorer():
    """A CP-8 scorer whose tree splits on numeric and nominal inputs."""
    dataset = QDTMRSyntheticGenerator(
        small_config(n_segments=1500, n_towns=18)
    ).generate(seed=4)
    return CrashPronenessScorer.train(
        dataset.crash_instances, threshold=8, seed=4
    )


def _tree_nodes(node: dict):
    yield node
    for branch in node["branches"]:
        yield from _tree_nodes(branch["child"])


def _first_node(data: dict, kind: str) -> dict:
    return next(
        node
        for node in _tree_nodes(data["model"]["tree"])
        if any(branch["kind"] == kind for branch in node["branches"])
    )


def _unknown_split_feature(data):
    _first_node(data, "le")["split"]["feature"] = "no_such_input"


def _code_outside_vocabulary(data):
    node = _first_node(data, "in")
    levels = data["model"]["vocabularies"][node["split"]["feature"]]
    arm = next(b for b in node["branches"] if b["kind"] == "in")
    arm["codes"].append(len(levels) + 5)


def _mismatched_thresholds(data):
    arm = next(b for b in _first_node(data, "le")["branches"] if b["kind"] == "le")
    arm["threshold"] += 1.0


def _two_missing_arms(data):
    node = _first_node(data, "le")
    for branch in node["branches"][:2]:
        node["branches"].append(dict(branch, kind="missing"))


class TestTreeSafety:
    """Nothing validates a plan any more: every index in a compiled
    plan is in range by construction (DESIGN.md §8).  A saved tree the
    plan cannot represent must be refused at load, before any row
    reaches the kernel."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _unknown_split_feature,
            _code_outside_vocabulary,
            _mismatched_thresholds,
            _two_missing_arms,
        ],
        ids=[
            "unknown-split-feature",
            "code-outside-vocabulary",
            "mismatched-thresholds",
            "two-missing-arms",
        ],
    )
    def test_refused_at_load(self, mixed_scorer, tmp_path, monkeypatch, corrupt):
        def kernel(*_args, **_kwargs):
            raise AssertionError("a plan was evaluated")

        monkeypatch.setattr(TreePlan, "evaluate", kernel)
        data = mixed_scorer.to_dict()
        corrupt(data)
        path = _resave(data, tmp_path / "unsafe.json")
        with pytest.raises(ReproError, match=r"node \d+ "):
            CrashPronenessScorer.load(path)


def _edit_csv(source, target, edit):
    with open(source, newline="") as handle:
        rows = list(csv.DictReader(handle))
    edit(rows)
    with open(target, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return read_csv(target)


class TestColumnKinds:
    """A scoring table settles each input's kind against the model
    (``FeatureSet.aligned_to``)."""

    @pytest.fixture()
    def segments_csv(self, small_dataset, tmp_path):
        path = tmp_path / "segments.csv"
        write_csv(small_dataset.segment_table.head(300), path)
        return path

    @pytest.mark.parametrize("column", ["aadt", "seal_age"])
    def test_stray_token_in_a_numeric_column_is_refused(
        self, scorer, segments_csv, tmp_path, column
    ):
        def stray(rows):
            rows[5][column] = "unknown"

        table = _edit_csv(segments_csv, tmp_path / "stray.csv", stray)
        with pytest.raises(ColumnTypeError, match=column) as info:
            scorer.score(table)
        assert "categorical" in str(info.value)
        assert "numeric" in str(info.value)

    @pytest.mark.parametrize("column", ["region", "terrain"])
    def test_blank_categorical_column_scores_as_missing(
        self, mixed_scorer, segments_csv, tmp_path, column
    ):
        def blank(rows):
            for row in rows:
                row[column] = ""

        table = _edit_csv(segments_csv, tmp_path / "blank.csv", blank)
        assert table.column(column).is_numeric  # how the reader types it
        schema = mixed_scorer.input_schema()
        rows = [
            {name: None if name == column else row[name] for name in schema}
            for row in (table.row(i) for i in range(table.n_rows))
        ]
        with ScoringEngine(mixed_scorer, cache_size=0) as engine:
            served = engine.score_many(rows)
        assert mixed_scorer.score(table).tolist() == served
