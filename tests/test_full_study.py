"""End-to-end test of the full study run (the repository's headline
integration test)."""

import pytest

from repro import CrashPronenessStudy


@pytest.fixture(scope="module")
def report(mid_dataset):
    study = CrashPronenessStudy(mid_dataset, seed=11)
    return study.run_full_study(n_clusters=16)


class TestFullStudy:
    def test_all_sections_present(self, report):
        assert report.phase1.results
        assert report.phase2.results
        assert report.bayes
        assert report.clustering.profiles

    def test_selected_threshold_in_band(self, report):
        assert report.selection.selected_threshold in (2, 4, 8, 16)

    def test_pipeline_log_traces_stages(self, report):
        """The study's one run record is ``StudyReport.timings``: every
        stage in the order it ran, with its tasks' keys."""
        timings = report.timings
        assert [s.stage for s in timings.stages] == [
            "phase1",
            "phase2",
            "supporting-bayes",
            "selection",
            "clustering",
        ]
        assert timings.stage("phase1").n_tasks == len(report.phase1.results)
        assert timings.stage("phase2").n_tasks == len(report.phase2.results)
        assert timings.stage("supporting-bayes").n_tasks == len(report.bayes)
        assert timings.stage("clustering").n_tasks == 0
        assert [t.key for t in timings.stage("phase2").tasks] == [
            f"phase2/cp-{r.threshold}" for r in report.phase2.results
        ]
        assert [t.key for t in timings.stage("supporting-bayes").tasks] == [
            f"bayes/cp-{r.threshold}" for r in report.bayes
        ]
        rendered = timings.render()
        assert "supporting-bayes" in rendered and "clustering" in rendered

    def test_clustering_supports_conclusion(self, report):
        """The banded-cluster finding should hold on synthetic data."""
        analysis = report.clustering
        assert analysis.anova.rejects_equal_means()
        assert analysis.n_very_low_crash_clusters >= 1

    def test_imbalance_story_visible(self, report):
        """At the top usable threshold, misclassification looks great
        while MCPV is clearly worse than at the selected threshold —
        the paper's evaluation-measure warning."""
        rows = {r.threshold: r for r in report.phase2.results}
        top = max(rows)
        selected = report.selection.selected_threshold
        if top >= 32 and selected in rows:
            assert (
                rows[top].misclassification_rate
                < rows[selected].misclassification_rate
            )
