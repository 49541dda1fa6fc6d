"""Common model interface.

Every algorithm in :mod:`repro.mining` follows the same contract:

* ``fit(table, target, include=None)`` — learn from a
  :class:`~repro.datatable.DataTable`; ``include`` optionally pins the
  input columns (otherwise the table schema / default exclusions
  decide).
* binary classifiers expose ``predict_proba`` (P of the positive class)
  and ``predict`` (0/1 at a threshold);
* regressors expose ``predict`` (float values).

Keeping the contract on DataTable rather than raw matrices lets tree
models consume categorical columns and missing values natively while
matrix models encode internally.
"""

from __future__ import annotations

import numpy as np

from repro.datatable import DataTable
from repro.exceptions import NotFittedError
from repro.mining.features import FeatureSet

__all__ = ["Model", "BinaryClassifier", "Regressor"]


class Model:
    """Base class handling fitted-state bookkeeping."""

    def __init__(self) -> None:
        self._fitted = False
        self._input_names: list[str] | None = None
        self._target_name: str | None = None
        self._vocabularies: dict[str, tuple[str, ...]] = {}

    # -- subclass hooks --------------------------------------------------
    def _fit(self, features: FeatureSet) -> None:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    def fit(
        self,
        table: DataTable,
        target: str,
        include: list[str] | None = None,
    ) -> "Model":
        """Fit the model; returns ``self`` for chaining."""
        features = FeatureSet(table, target, include)
        self._input_names = features.input_names
        self._target_name = target
        self._vocabularies = features.vocabularies()
        self._fit(features)
        self._fitted = True
        return self

    @property
    def input_names(self) -> list[str]:
        self._require_fitted()
        assert self._input_names is not None
        return list(self._input_names)

    @property
    def target_name(self) -> str:
        self._require_fitted()
        assert self._target_name is not None
        return self._target_name

    @property
    def vocabularies(self) -> dict[str, tuple[str, ...]]:
        """Categorical input name → training label vocabulary."""
        self._require_fitted()
        return dict(self._vocabularies)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(type(self).__name__)

    def _features_for(self, table: DataTable) -> FeatureSet:
        """Build a FeatureSet for prediction with the fitted inputs.

        Prediction tables do not need the target column; a constant
        dummy is injected when it is absent so FeatureSet stays simple.
        Categorical codes are aligned to the training vocabularies so a
        table with its own label ordering still routes correctly.
        """
        self._require_fitted()
        assert self._input_names is not None and self._target_name is not None
        if self._target_name in table:
            features = FeatureSet(table, self._target_name, self._input_names)
        else:
            from repro.datatable import NumericColumn

            dummy = NumericColumn.from_array(
                self._target_name, np.zeros(table.n_rows)
            )
            features = FeatureSet(
                table.with_column(dummy),
                self._target_name,
                self._input_names,
            )
        return features.aligned_to(self._vocabularies)


class BinaryClassifier(Model):
    """Mixin contract for binary classifiers."""

    def __init__(self) -> None:
        super().__init__()
        self.class_labels: tuple[str, str] | None = None
        """(negative, positive) label pair captured at fit time."""

    def predict_proba(self, table: DataTable) -> np.ndarray:
        """P(positive class) per row."""
        raise NotImplementedError

    def predict(self, table: DataTable, threshold: float = 0.5) -> np.ndarray:
        """0/1 predictions at the given probability threshold."""
        return (self.predict_proba(table) >= threshold).astype(np.int64)

    def predict_labels(
        self, table: DataTable, threshold: float = 0.5
    ) -> list[str]:
        """Predictions as the original class labels."""
        self._require_fitted()
        assert self.class_labels is not None
        negative, positive = self.class_labels
        return [
            positive if flag else negative
            for flag in self.predict(table, threshold)
        ]


class Regressor(Model):
    """Mixin contract for interval-target models."""

    def predict(self, table: DataTable) -> np.ndarray:
        """Predicted target value per row."""
        raise NotImplementedError
