"""Training-vs-validation model quality profiles.

The paper justifies its evaluation protocol thus: "the
training/validation method was used because correlations between the
training and validation plots provided by this method are good
indicators of the raw model quality, an aspect that is obscured by the
use of high performance methods such as cross-validation, boosting,
bagging and so on."

:func:`train_validation_profile` produces exactly those paired plots:
the chosen metric on the training and validation partitions across a
sweep of tree sizes, plus their correlation.  A high correlation with a
small gap says the model family is honest at that size; a widening gap
marks the onset of overfitting (for the paper's data, the point where
the tree starts memorising duplicated segment rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assessment import assess_scores
from repro.core.thresholds import (
    TARGET_COLUMN,
    build_threshold_dataset,
    target_vector,
)
from repro.datatable import DataTable
from repro.evaluation import train_valid_split
from repro.exceptions import EvaluationError
from repro.mining import DecisionTreeClassifier, TreeConfig

__all__ = ["QualityPoint", "QualityProfile", "train_validation_profile"]


@dataclass(frozen=True)
class QualityPoint:
    """One tree size in the profile."""

    leaf_budget: int
    leaves_grown: int
    train_value: float
    valid_value: float

    @property
    def gap(self) -> float:
        return self.train_value - self.valid_value


@dataclass
class QualityProfile:
    """The paired training/validation assessment plot."""

    metric: str
    points: list[QualityPoint]

    def correlation(self) -> float:
        """Pearson correlation of the train and validation plots."""
        train = [p.train_value for p in self.points]
        valid = [p.valid_value for p in self.points]
        if len(self.points) < 2:
            return float("nan")
        if np.std(train) == 0 or np.std(valid) == 0:  # repro: ignore[REP003] -- exact zero std means a constant fold; correlation is defined for any nonzero spread
            return float("nan")
        return float(np.corrcoef(train, valid)[0, 1])

    def honest_sizes(self, gap_tolerance: float = 0.05) -> list[int]:
        """Leaf budgets whose train/valid gap stays within tolerance."""
        return [
            p.leaf_budget
            for p in self.points
            if p.gap <= gap_tolerance
        ]

    def best_validated(self) -> QualityPoint:
        return max(self.points, key=lambda p: p.valid_value)


def train_validation_profile(
    crash_instances: DataTable,
    threshold: int,
    leaf_budgets: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    metric: str = "mcpv",
    seed: int = 0,
    train_fraction: float = 0.6,
    min_leaf: int | None = None,
) -> QualityProfile:
    """Sweep tree sizes and assess on both partitions.

    ``metric`` is any :class:`ClassifierAssessment` field (mcpv, kappa,
    roc_area, accuracy, ...).
    """
    if not leaf_budgets:
        raise EvaluationError("leaf_budgets must not be empty")
    dataset = build_threshold_dataset(crash_instances, threshold)
    rng = np.random.default_rng(seed)
    split = train_valid_split(
        dataset.table, rng, train_fraction, stratify_by=TARGET_COLUMN
    )
    train_actual = target_vector(split.train)
    valid_actual = target_vector(split.valid)
    if min_leaf is None:
        min_leaf = max(25, dataset.table.n_rows // 300)
    points: list[QualityPoint] = []
    for budget in sorted(set(leaf_budgets)):
        config = TreeConfig(
            min_leaf=min_leaf,
            min_split=max(60, int(2.5 * min_leaf)),
            max_leaves=max(2, budget),
        )
        model = DecisionTreeClassifier(config).fit(
            split.train, TARGET_COLUMN
        )
        train_assessment = assess_scores(
            train_actual, model.predict_proba(split.train)
        )
        valid_assessment = assess_scores(
            valid_actual, model.predict_proba(split.valid)
        )
        points.append(
            QualityPoint(
                leaf_budget=budget,
                leaves_grown=model.n_leaves,
                train_value=float(getattr(train_assessment, metric)),
                valid_value=float(getattr(valid_assessment, metric)),
            )
        )
    return QualityProfile(metric=metric, points=points)
