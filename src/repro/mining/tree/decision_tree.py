"""Chi-square decision tree on a Boolean target.

The paper's primary model family: "decision trees, using the chi-square
test on a Boolean target, with the objective of obtaining the minimum
class classification rates as the model assessment."
"""

from __future__ import annotations

import numpy as np

from repro.datatable import DataTable
from repro.mining.base import BinaryClassifier
from repro.mining.features import FeatureSet
from repro.mining.tree.compile import CompiledScoringMixin
from repro.mining.tree.structure import iter_leaves

__all__ = ["DecisionTreeClassifier"]


class DecisionTreeClassifier(CompiledScoringMixin, BinaryClassifier):
    """CHAID-flavoured chi-square classification tree.

    Parameters
    ----------
    config:
        Growth hyper-parameters (:class:`TreeConfig`); the default
        matches the study's discovery-stage configuration.

    Attributes
    ----------
    n_leaves / n_nodes / depth:
        Structure of the fitted tree (Tables 3 and 4 report leaves).
    """

    def _fit(self, features: FeatureSet) -> None:
        y, labels = features.binary_target()
        self.class_labels = labels
        self._grow(features, y, "chi2")

    def predict_proba(self, table: DataTable) -> np.ndarray:
        return self._route(table)[0]

    def leaf_summary(self) -> list[dict]:
        """One record per leaf: id, size, P(positive)."""
        return [
            {
                "leaf_id": leaf.node_id,
                "n_samples": leaf.n_samples,
                "p_positive": leaf.prediction,
            }
            for leaf in iter_leaves(self.root)
        ]

    def _extra_payload(self) -> dict:
        assert self.class_labels is not None
        return {"class_labels": list(self.class_labels)}

    def _restore_extra(self, data: dict) -> None:
        self.class_labels = tuple(data["class_labels"])
