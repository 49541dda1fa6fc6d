"""The crash-proneness study: phases 1–3 orchestration.

This is the paper's primary contribution as an executable object.

* **Phase 1** — threshold sweep over the crash + zero-altered no-crash
  table (Table 3): per threshold, an F-test regression tree (validation
  R², leaf count) and a chi-square decision tree (NPV, PPV,
  misclassification, leaf count) on a train/validation split.
* **Phase 2** — the same sweep over the crash-only table (Table 4).
* **Supporting sweeps** — naive Bayes (Table 5), logistic regression
  and neural networks under 10-fold cross-validation, and M5 model
  trees as an interval-target comparison.
* **Phase 3** — 32-cluster k-means on the crash-only data, with the
  crash-count range analysis and ANOVA (Figure 4).
* **Threshold selection** — MCPV peak/plateau rule combining phases 1
  and 2 ("the best combination results ... is between thresholds 4 and
  8 crashes").

The paper follows CRISP-DM: phases 1–3 are its modelling stage and the
threshold selection its evaluation stage.  Here they are plain method
calls.

Every ``(threshold, model)`` fit is independent, so every CP-k sweep
goes through one runner that dispatches over
:class:`~repro.parallel.executor.SweepExecutor`: ``n_jobs=1`` (default)
runs the deterministic serial backend, ``n_jobs=N`` a process pool whose
output is bit-identical because each task derives its own seed from the
study seed and its threshold offset.  A shared
:class:`~repro.parallel.cache.ThresholdDatasetCache` builds each CP-k
dataset once per source table instead of once per model family.

``run_full_study`` calls the phases in order on one executor and one
cache; the executor's :class:`~repro.parallel.timing.StageTimings` is
the run's one stage record, returned as ``StudyReport.timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.assessment import (
    ClassifierAssessment,
    ThresholdSelection,
    assess_scores,
    select_best_threshold,
)
from repro.core.clustering_analysis import (
    ClusteringAnalysis,
    run_phase3_clustering,
)
from repro.core.thresholds import (
    PHASE1_THRESHOLDS,
    PHASE2_THRESHOLDS,
    TARGET_COLUMN,
    ThresholdDataset,
    target_vector,
)
from repro.datatable import DataTable
from repro.evaluation import cross_val_scores, r_squared, train_valid_split
from repro.exceptions import ConfigurationError, EvaluationError
from repro.mining import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    M5ModelTree,
    NaiveBayesClassifier,
    NeuralNetworkClassifier,
    RegressionTree,
    TreeConfig,
)
from repro.obs.trace import span as obs_span
from repro.parallel.cache import ThresholdDatasetCache
from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import SweepTask, TaskResult
from repro.parallel.timing import StageTimings
from repro.roads.generator import RoadCrashDataset

__all__ = [
    "TreeModelResult",
    "PhaseResult",
    "SupportingModelResult",
    "StudyReport",
    "CrashPronenessStudy",
    "fit_tree_models",
    "fit_supporting_model",
    "fit_m5_model",
]


@dataclass(frozen=True)
class TreeModelResult:
    """One row of Table 3 / Table 4."""

    threshold: int
    n_non_prone: int
    n_prone: int
    r_squared: float
    regression_leaves: int
    npv: float
    ppv: float
    misclassification_rate: float
    decision_leaves: int
    assessment: ClassifierAssessment

    @property
    def mcpv(self) -> float:
        return self.assessment.mcpv

    @property
    def kappa(self) -> float:
        return self.assessment.kappa


@dataclass
class PhaseResult:
    """All thresholds of one modelling phase."""

    phase: int
    results: list[TreeModelResult] = field(default_factory=list)

    def thresholds(self) -> list[int]:
        return [r.threshold for r in self.results]

    def series(self, attribute: str) -> dict[int, float]:
        """threshold → value of one result attribute (e.g. 'mcpv')."""
        return {
            r.threshold: float(getattr(r, attribute)) for r in self.results
        }

    def mcpv_series(self) -> dict[int, float]:
        return self.series("mcpv")

    def r_squared_series(self) -> dict[int, float]:
        return self.series("r_squared")


@dataclass(frozen=True)
class SupportingModelResult:
    """One row of Table 5 (or its logistic / neural analogue)."""

    model: str
    threshold: int
    assessment: ClassifierAssessment

    @property
    def mcpv(self) -> float:
        return self.assessment.mcpv

    @property
    def kappa(self) -> float:
        return self.assessment.kappa


@dataclass
class StudyReport:
    """The full study outcome.

    ``timings`` is a measurement, not a result: two runs of the same
    study yield identical model values but different wall clocks, so
    result comparisons must ignore it.
    """

    phase1: PhaseResult
    phase2: PhaseResult
    bayes: list[SupportingModelResult]
    selection: ThresholdSelection
    clustering: ClusteringAnalysis
    timings: StageTimings | None = None


# -- picklable task bodies ---------------------------------------------------
# These module-level functions are the sweep DAG's task payloads: every
# input (data, config, derived seed) arrives as an argument, so a task's
# result is independent of backend and execution order.


def fit_tree_models(
    dataset: ThresholdDataset,
    split_seed: int,
    config: TreeConfig,
    train_fraction: float,
    repeats: int,
) -> TreeModelResult:
    """Fit the paper's regression + decision tree pair at one threshold.

    The validation scans (``predict_proba`` / ``predict`` on the held-out
    split) run through each tree's compiled scoring plan
    (:mod:`repro.mining.tree.compile`), which is bit-identical to the
    interpreted router — the pooled Table 3/4 statistics are unaffected.
    """
    pooled_actual: list[np.ndarray] = []
    pooled_scores: list[np.ndarray] = []
    pooled_regression: list[np.ndarray] = []
    decision_leaves: list[int] = []
    regression_leaves: list[int] = []
    for repeat in range(repeats):
        rng = np.random.default_rng(split_seed + 7919 * repeat)
        split = train_valid_split(
            dataset.table,
            rng,
            train_fraction,
            stratify_by=TARGET_COLUMN,
        )
        decision = DecisionTreeClassifier(config).fit(
            split.train, TARGET_COLUMN
        )
        pooled_actual.append(target_vector(split.valid))
        pooled_scores.append(decision.predict_proba(split.valid))
        decision_leaves.append(decision.n_leaves)
        regression = RegressionTree(config).fit(split.train, TARGET_COLUMN)
        pooled_regression.append(regression.predict(split.valid))
        regression_leaves.append(regression.n_leaves)
    actual = np.concatenate(pooled_actual)
    assessment = assess_scores(actual, np.concatenate(pooled_scores))
    r2 = r_squared(
        actual.astype(np.float64), np.concatenate(pooled_regression)
    )
    return TreeModelResult(
        threshold=dataset.threshold,
        n_non_prone=dataset.n_non_prone,
        n_prone=dataset.n_prone,
        r_squared=r2,
        regression_leaves=int(round(np.mean(regression_leaves))),
        npv=assessment.npv,
        ppv=assessment.ppv,
        misclassification_rate=assessment.misclassification_rate,
        decision_leaves=int(round(np.mean(decision_leaves))),
        assessment=assessment,
    )


_SUPPORTING_MODELS = ("bayes", "logistic", "neural")


def _supporting_factory(model: str, model_seed: int):
    if model == "bayes":
        return lambda: NaiveBayesClassifier()
    if model == "logistic":
        return lambda: LogisticRegressionClassifier()
    if model == "neural":
        return lambda: NeuralNetworkClassifier(epochs=150, seed=model_seed)
    raise ConfigurationError(
        f"model must be one of {sorted(_SUPPORTING_MODELS)}, got {model!r}"
    )


def fit_supporting_model(
    model: str,
    dataset: ThresholdDataset,
    folds: int,
    cv_seed: int,
    model_seed: int,
) -> SupportingModelResult:
    """One supporting-model CV run (a Table 5 row) at one threshold."""
    rng = np.random.default_rng(cv_seed)
    actual, scores = cross_val_scores(
        _supporting_factory(model, model_seed),
        dataset.table,
        TARGET_COLUMN,
        dataset.target_vector(),
        folds,
        rng,
    )
    return SupportingModelResult(
        model=model,
        threshold=dataset.threshold,
        assessment=assess_scores(actual, scores),
    )


def _two_class(dataset: ThresholdDataset) -> bool:
    """Keep rule of the tree and M5 sweeps: both classes are present."""
    return min(dataset.n_non_prone, dataset.n_prone) > 0


def fit_m5_model(
    dataset: ThresholdDataset, split_seed: int, train_fraction: float
) -> float:
    """Validation R² of an M5 model tree at one threshold."""
    rng = np.random.default_rng(split_seed)
    split = train_valid_split(
        dataset.table, rng, train_fraction, stratify_by=TARGET_COLUMN
    )
    model = M5ModelTree().fit(split.train, TARGET_COLUMN)
    actual = target_vector(split.valid).astype(np.float64)
    return r_squared(actual, model.predict(split.valid))


class CrashPronenessStudy:
    """Executable reproduction of the paper's modelling methodology.

    Parameters
    ----------
    dataset:
        A generated :class:`~repro.roads.generator.RoadCrashDataset`.
    tree_config:
        Growth parameters shared by all tree fits.  ``None`` (default)
        auto-scales the minimum leaf size with the data: phase-2
        instances duplicate each segment's attribute row once per
        crash, so leaves small relative to a segment's crash count
        would memorise individual segments across the train/validation
        split.  The paper's own leaf counts (6–160 leaves on 16,750
        instances) imply comparably large leaves.
    train_fraction:
        The train/validation split used for the tree models.
    seed:
        Seeds all splits and model initialisations.
    repeats:
        Independent train/validation repetitions per threshold; the
        validation predictions are pooled before assessment.  1 matches
        the paper's single split; 2–3 stabilise the synthetic tables.
    """

    def __init__(
        self,
        dataset: RoadCrashDataset,
        tree_config: TreeConfig | None = None,
        train_fraction: float = 0.6,
        seed: int = 0,
        repeats: int = 1,
    ):
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        self.dataset = dataset
        self.tree_config = tree_config
        self.train_fraction = train_fraction
        self.seed = seed
        self.repeats = repeats

    # -- shared mechanics -------------------------------------------------
    def _config_for(self, dataset: ThresholdDataset) -> TreeConfig:
        if self.tree_config is not None:
            return self.tree_config
        n_rows = dataset.table.n_rows
        # Instance tables duplicate a segment's attribute row once per
        # crash; a leaf smaller than ~1.3x the largest segment count
        # could isolate a single road and "validate" on its own copies.
        from repro.core.thresholds import CRASH_COUNT_COLUMN

        max_count = float(
            np.nanmax(dataset.table.numeric(CRASH_COUNT_COLUMN))
        )
        min_leaf = max(25, n_rows // 150, int(1.3 * max_count))
        return TreeConfig(
            min_leaf=min_leaf,
            min_split=max(60, int(2.5 * min_leaf)),
            max_leaves=160,
        )

    def _fit_trees_at(
        self, dataset: ThresholdDataset, split_seed: int
    ) -> TreeModelResult:
        """One tree-pair fit, serial and in-process (bench unit)."""
        return fit_tree_models(
            dataset,
            split_seed,
            self._config_for(dataset),
            self.train_fraction,
            self.repeats,
        )

    def _run_sweep(
        self,
        stage: str,
        key: str,
        table: DataTable,
        thresholds: tuple[int, ...],
        task_for: Callable[
            [int, ThresholdDataset], tuple[Callable[..., Any], tuple] | None
        ],
        executor: SweepExecutor | None,
        cache: ThresholdDatasetCache | None,
        required_by: str | None = None,
    ) -> list[TaskResult]:
        """Build, filter and dispatch one CP-k sweep; every sweep runs here.

        Each threshold's dataset comes from ``cache`` (a fresh one when
        ``None``).  ``task_for(offset, dataset)`` returns the task's
        ``(fn, args)``, or ``None`` to skip a dataset the sweep cannot
        model.  The offset indexes the *sorted* threshold list including
        skipped entries — per-task seeds derive from it, so a
        threshold's seed never depends on which other thresholds
        survive.  Tasks are keyed ``<key>/cp-<k>`` and run as ``stage``
        on ``executor``, or on a serial one of the sweep's own.

        ``required_by`` names a sweep that must model at least one
        threshold: when every dataset is skipped it raises
        :class:`EvaluationError` with each threshold's class counts.
        """
        if cache is None:
            cache = ThresholdDatasetCache()
        with obs_span("study.build_datasets", n_thresholds=len(thresholds)):
            datasets = [
                cache.get(table, threshold) for threshold in sorted(thresholds)
            ]
        tasks: list[SweepTask] = []
        for offset, dataset in enumerate(datasets):
            call = task_for(offset, dataset)
            if call is not None:
                fn, args = call
                tasks.append(
                    SweepTask(
                        key=f"{key}/cp-{dataset.threshold}",
                        fn=fn,
                        args=args,
                        stage=stage,
                        threshold=dataset.threshold,
                    )
                )
        if not tasks and required_by is not None:
            class_counts = "; ".join(
                f"CP-{d.threshold}: {d.n_non_prone} non-prone / "
                f"{d.n_prone} prone"
                for d in datasets
            )
            raise EvaluationError(
                f"{required_by}: no threshold produced a two-class "
                f"dataset (attempted thresholds "
                f"{sorted(thresholds)}; {class_counts})"
            )
        if executor is not None:
            return executor.run(tasks, stage=stage)
        with SweepExecutor(n_jobs=1) as own:
            return own.run(tasks, stage=stage)

    def _tree_sweep(
        self,
        table: DataTable,
        thresholds: tuple[int, ...],
        phase: int,
        executor: SweepExecutor | None,
        cache: ThresholdDatasetCache | None,
    ) -> PhaseResult:
        def task_for(offset: int, dataset: ThresholdDataset):
            if not _two_class(dataset):
                return None
            return fit_tree_models, (
                dataset,
                self.seed + 101 * offset,
                self._config_for(dataset),
                self.train_fraction,
                self.repeats,
            )

        outputs = self._run_sweep(
            f"phase{phase}",
            f"phase{phase}",
            table,
            thresholds,
            task_for,
            executor,
            cache,
            required_by=f"phase {phase}",
        )
        return PhaseResult(phase=phase, results=[r.value for r in outputs])

    # -- phases --------------------------------------------------------------
    def run_phase1(
        self,
        thresholds: tuple[int, ...] = PHASE1_THRESHOLDS,
        executor: SweepExecutor | None = None,
        cache: ThresholdDatasetCache | None = None,
    ) -> PhaseResult:
        """Tree sweep over the crash + no-crash table (Table 3)."""
        return self._tree_sweep(
            self.dataset.combined_instances(), thresholds, 1, executor, cache
        )

    def run_phase2(
        self,
        thresholds: tuple[int, ...] = PHASE2_THRESHOLDS,
        executor: SweepExecutor | None = None,
        cache: ThresholdDatasetCache | None = None,
    ) -> PhaseResult:
        """Tree sweep over the crash-only table (Table 4)."""
        return self._tree_sweep(
            self.dataset.crash_instances, thresholds, 2, executor, cache
        )

    def run_segment_level_sweep(
        self,
        thresholds: tuple[int, ...] = PHASE2_THRESHOLDS,
        executor: SweepExecutor | None = None,
        cache: ThresholdDatasetCache | None = None,
    ) -> PhaseResult:
        """Extension: the phase-2 sweep with one row per *segment*.

        The paper's unit of analysis is the crash instance, which
        duplicates each segment's attribute row once per crash — the
        very mechanism it flags at CP-64 ("crashes referencing the same
        road segment").  This variant models the crash segments
        directly (each road counted once), removing the duplication.
        Class counts then reflect segments, so the extreme thresholds
        are *even more* imbalanced, but no leaf can span copies of one
        road across the train/validation split.
        """
        crash_segments = self.dataset.segment_table.filter(
            self.dataset.segment_table.numeric("segment_crash_count") > 0
        )
        return self._tree_sweep(crash_segments, thresholds, 4, executor, cache)

    def run_supporting_sweep(
        self,
        model: str = "bayes",
        thresholds: tuple[int, ...] = PHASE2_THRESHOLDS,
        folds: int = 10,
        executor: SweepExecutor | None = None,
        cache: ThresholdDatasetCache | None = None,
    ) -> list[SupportingModelResult]:
        """10-fold CV sweep of a supporting classifier on crash-only data.

        ``model`` is one of 'bayes', 'logistic', 'neural'.
        """
        _supporting_factory(model, self.seed)  # validate the name early

        def task_for(offset: int, dataset: ThresholdDataset):
            y = dataset.target_vector()
            if min(int(y.sum()), int((1 - y).sum())) < folds:
                return None  # cannot stratify this few minority rows
            return fit_supporting_model, (
                model,
                dataset,
                folds,
                self.seed + 977 * offset,
                self.seed,
            )

        outputs = self._run_sweep(
            f"supporting-{model}",
            model,
            self.dataset.crash_instances,
            thresholds,
            task_for,
            executor,
            cache,
        )
        return [r.value for r in outputs]

    def run_m5_sweep(
        self,
        thresholds: tuple[int, ...] = PHASE2_THRESHOLDS,
        executor: SweepExecutor | None = None,
        cache: ThresholdDatasetCache | None = None,
    ) -> dict[int, float]:
        """M5 model-tree validation R² per threshold (interval target)."""

        def task_for(offset: int, dataset: ThresholdDataset):
            if not _two_class(dataset):
                return None
            return fit_m5_model, (
                dataset,
                self.seed + 389 * offset,
                self.train_fraction,
            )

        outputs = self._run_sweep(
            "m5",
            "m5",
            self.dataset.crash_instances,
            thresholds,
            task_for,
            executor,
            cache,
        )
        return {r.threshold: r.value for r in outputs}

    def run_phase3(self, *, n_clusters: int = 32) -> ClusteringAnalysis:
        """K-means crash-count range analysis of the crash-only data.

        Phase 3 clusters the full crash-only table: the selected
        threshold names the deployed model but does not alter the
        clustering's inputs.
        """
        return run_phase3_clustering(
            self.dataset.crash_instances,
            n_clusters=n_clusters,
            seed=self.seed,
        )

    # -- selection ----------------------------------------------------------
    def select_threshold(
        self,
        phase1: PhaseResult,
        phase2: PhaseResult,
        plateau_tolerance: float = 0.02,
    ) -> ThresholdSelection:
        """Combine both phases' MCPV curves with the paper's rule.

        For thresholds present in both phases the *minimum* of the two
        MCPVs is used (a threshold must hold up in both datasets),
        mirroring how the paper reads its "best combination results".
        """
        curve1 = phase1.mcpv_series()
        curve2 = phase2.mcpv_series()
        combined: dict[int, float] = {}
        for threshold in sorted(set(curve1) | set(curve2)):
            values = [
                c[threshold] for c in (curve1, curve2) if threshold in c
            ]
            usable = [v for v in values if not np.isnan(v)]
            combined[threshold] = min(usable) if usable else float("nan")
        return select_best_threshold(
            combined, metric="mcpv", plateau_tolerance=plateau_tolerance
        )

    # -- the full study -----------------------------------------------------
    def run_full_study(
        self,
        phase1_thresholds: tuple[int, ...] = PHASE1_THRESHOLDS,
        phase2_thresholds: tuple[int, ...] = PHASE2_THRESHOLDS,
        n_clusters: int = 32,
        n_jobs: int | None = 1,
    ) -> StudyReport:
        """Run phases 1 and 2, the naive Bayes sweep, selection and phase 3.

        Every sweep shares one executor and one threshold dataset
        cache.  ``n_jobs`` selects the sweep backend: ``1`` (default)
        runs serially in-process; any other value dispatches the
        ``(threshold, model)`` fits over a process pool.  Model outputs
        are bit-identical either way — only ``StudyReport.timings``, the
        executor's per-stage record, differs.
        """
        cache = ThresholdDatasetCache()
        with obs_span(
            "study.run_full_study", n_jobs=n_jobs, seed=self.seed
        ), SweepExecutor(n_jobs=n_jobs) as executor:
            phase1 = self.run_phase1(
                phase1_thresholds, executor=executor, cache=cache
            )
            phase2 = self.run_phase2(
                phase2_thresholds, executor=executor, cache=cache
            )
            bayes = self.run_supporting_sweep(
                "bayes", phase2_thresholds, executor=executor, cache=cache
            )
            with executor.timed_stage("selection"):
                selection = self.select_threshold(phase1, phase2)
            with executor.timed_stage("clustering"):
                clustering = self.run_phase3(n_clusters=n_clusters)
            executor.attach_cache_stats(cache)
        return StudyReport(
            phase1=phase1,
            phase2=phase2,
            bayes=bayes,
            selection=selection,
            clustering=clustering,
            timings=executor.timings,
        )
