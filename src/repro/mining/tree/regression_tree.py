"""F-test regression tree on an interval target.

The paper's second production configuration: "regression trees, using
the f-test on a target configured as interval, to obtain the
coefficient of determination (r-squared) for use in the assessment of
predictive accuracy of the model.  Interval models tended to be more
accurate but with less compact models."

A binary crash-proneness target is coerced to 0.0 / 1.0 and modelled as
an interval quantity; leaf predictions are class fractions, and R² on a
validation set is the headline statistic of Tables 3 and 4.
"""

from __future__ import annotations

import numpy as np

from repro.datatable import DataTable
from repro.evaluation.metrics import r_squared
from repro.mining.base import Regressor
from repro.mining.features import FeatureSet
from repro.mining.tree.compile import CompiledScoringMixin
from repro.mining.tree.structure import iter_leaves

__all__ = ["RegressionTree"]


class RegressionTree(CompiledScoringMixin, Regressor):
    """F-test regression tree (interval target)."""

    def _fit(self, features: FeatureSet) -> None:
        self._grow(features, features.interval_target(), "f")

    def predict(self, table: DataTable) -> np.ndarray:
        return self._route(table)[0]

    def score_r_squared(self, table: DataTable) -> float:
        """Validation R² against the fitted target column."""
        features = self._features_for(table)
        actual = features.interval_target()
        predicted = self.predict(table)
        return r_squared(actual, predicted)

    def leaf_summary(self) -> list[dict]:
        """One record per leaf: id, size, mean target (leaf purity)."""
        return [
            {
                "leaf_id": leaf.node_id,
                "n_samples": leaf.n_samples,
                "mean_target": leaf.prediction,
            }
            for leaf in iter_leaves(self.root)
        ]
