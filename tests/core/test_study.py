"""Integration tests of the study phases on generated data.

These run on the session-scoped ``mid_dataset`` (6,000 segments) so the
whole class of tests shares one generation and the fits stay fast.
"""

import math

import numpy as np
import pytest

from repro.core import PHASE2_THRESHOLDS, CrashPronenessStudy
from repro.mining import TreeConfig


@pytest.fixture(scope="module")
def study(mid_dataset):
    return CrashPronenessStudy(mid_dataset, seed=3)


@pytest.fixture(scope="module")
def phase1(study):
    return study.run_phase1()


@pytest.fixture(scope="module")
def phase2(study):
    return study.run_phase2()


class TestPhaseSweeps:
    def test_phase1_covers_crash_no_crash_boundary(self, phase1):
        assert phase1.thresholds()[0] == 0
        assert phase1.phase == 1

    def test_phase2_starts_at_two(self, phase2):
        assert phase2.thresholds()[0] == 2

    def test_rows_have_all_table_columns(self, phase2):
        row = phase2.results[0]
        assert row.n_non_prone + row.n_prone > 0
        assert 0 <= row.misclassification_rate <= 1
        assert row.regression_leaves >= 1
        assert row.decision_leaves >= 1
        assert not math.isnan(row.r_squared)

    def test_class_counts_match_table1_semantics(self, phase2, mid_dataset):
        counts = mid_dataset.crash_instances.numeric(
            "segment_crash_count"
        )
        for row in phase2.results:
            assert row.n_prone == int((counts > row.threshold).sum())

    def test_mcpv_series_aligned(self, phase2):
        series = phase2.mcpv_series()
        assert list(series) == phase2.thresholds()

    def test_mid_band_beats_boundary_phase1(self, phase1):
        """Low-crash roads resemble no-crash roads: some mid threshold
        must classify better than the crash/no-crash boundary."""
        series = phase1.mcpv_series()
        mid = max(series.get(k, -1) for k in (2, 4, 8))
        assert mid > series[0]

    def test_phase2_peak_in_low_mid_band(self, phase2):
        """The paper's headline: efficiency peaks at 4–8, and the very
        high thresholds do not dominate the low-mid band."""
        series = {
            k: v
            for k, v in phase2.mcpv_series().items()
            if not math.isnan(v) and k <= 32
        }
        peak = max(series, key=series.get)
        assert peak in (2, 4, 8, 16)

    def test_r_squared_rises_from_cp2(self, phase2):
        series = phase2.r_squared_series()
        assert max(
            series.get(k, -1) for k in (4, 8, 16)
        ) > series[2] - 0.05


class TestSupportingSweeps:
    def test_bayes_sweep_rows(self, study):
        results = study.run_supporting_sweep(
            "bayes", thresholds=(2, 8, 32), folds=5
        )
        assert [r.threshold for r in results] == [2, 8, 32]
        for row in results:
            assert row.model == "bayes"
            assert 0 <= row.assessment.roc_area <= 1

    def test_trees_beat_bayes_at_selected_threshold(self, study, phase2):
        """'Decision tree performance is better than the Bayesian
        model' — compare at CP-8."""
        bayes = study.run_supporting_sweep(
            "bayes", thresholds=(8,), folds=5
        )[0]
        tree_row = next(r for r in phase2.results if r.threshold == 8)
        assert tree_row.mcpv > bayes.mcpv - 0.02

    def test_unknown_model_rejected(self, study):
        with pytest.raises(ValueError):
            study.run_supporting_sweep("svm")

    def test_m5_sweep_returns_r_squared(self, study):
        series = study.run_m5_sweep(thresholds=(8,))
        assert set(series) == {8}
        assert -1.0 < series[8] <= 1.0


class TestSelection:
    def test_selection_lands_in_paper_band(self, study, phase1, phase2):
        selection = study.select_threshold(phase1, phase2)
        assert selection.selected_threshold in (2, 4, 8, 16)
        assert selection.metric == "mcpv"

    def test_plateau_values_recorded(self, study, phase1, phase2):
        selection = study.select_threshold(phase1, phase2)
        assert set(selection.plateau) <= set(selection.values)


class TestPhase3:
    def test_clustering_analysis(self, study):
        analysis = study.run_phase3(n_clusters=16)
        assert analysis.n_clusters == 16
        assert analysis.anova.p_value < 1e-6
        assert analysis.n_very_low_crash_clusters >= 1


class TestExplicitConfig:
    def test_explicit_tree_config_used(self, mid_dataset):
        study = CrashPronenessStudy(
            mid_dataset,
            tree_config=TreeConfig(max_leaves=4, min_leaf=25, min_split=60),
            seed=1,
        )
        result = study.run_phase2(thresholds=(8,))
        assert result.results[0].decision_leaves <= 4


class TestSweepErrors:
    def test_degenerate_sweep_error_lists_thresholds_and_counts(
        self, mid_dataset
    ):
        """When no threshold yields two classes the error must name the
        attempted thresholds and their class counts, not just fail."""
        from repro.exceptions import EvaluationError

        study = CrashPronenessStudy(mid_dataset, seed=3)
        with pytest.raises(EvaluationError) as excinfo:
            study.run_phase2(thresholds=(100_000, 200_000))
        message = str(excinfo.value)
        assert "phase 2" in message
        assert "[100000, 200000]" in message
        assert "CP-100000" in message and "CP-200000" in message
        assert "0 prone" in message
        n_instances = mid_dataset.crash_instances.n_rows
        assert f"{n_instances} non-prone" in message


class TestSegmentLevelSweep:
    def test_rows_are_segments(self, study, mid_dataset):
        result = study.run_segment_level_sweep(thresholds=(4, 8))
        n_crash_segments = int(
            (mid_dataset.segment_table.numeric("segment_crash_count") > 0).sum()
        )
        for row in result.results:
            assert row.n_non_prone + row.n_prone == n_crash_segments

    def test_no_crash_count_leakage(self, study):
        """Per-year crash columns must not be model inputs."""
        from repro.core import build_threshold_dataset

        crash_segments = study.dataset.segment_table.filter(
            study.dataset.segment_table.numeric("segment_crash_count") > 0
        )
        dataset = build_threshold_dataset(crash_segments, 8)
        inputs = dataset.table.schema.input_names()
        assert not any(name.startswith("crashes_") for name in inputs)
        assert "segment_crash_count" not in inputs

    def test_band_survives_unit_change(self, study):
        import math

        result = study.run_segment_level_sweep(thresholds=(2, 4, 8, 16))
        series = {
            k: v
            for k, v in result.mcpv_series().items()
            if not math.isnan(v)
        }
        assert series
        assert max(series.values()) > 0.5
