"""Feature-view extraction from :class:`~repro.datatable.DataTable`.

Tree models consume columns natively (numeric thresholds, categorical
branches, missing as its own branch); matrix models (naive Bayes,
logistic regression, neural networks, k-means) consume an encoded
numeric matrix.  :class:`FeatureSet` is the shared first step: it
resolves which columns are model inputs and exposes them with their
measurement level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatable import (
    CategoricalColumn,
    DataTable,
    NumericColumn,
)
from repro.exceptions import (
    ColumnTypeError,
    FitError,
    MissingColumnError,
    SchemaError,
)

__all__ = ["Feature", "FeatureSet"]

#: Columns never used as model inputs even without a schema.
_DEFAULT_EXCLUDED = frozenset(
    {"segment_id", "segment_crash_count", "crash_year"}
)


@dataclass(frozen=True)
class Feature:
    """One model input: name + kind + the column payload."""

    name: str
    is_numeric: bool
    values: np.ndarray
    """float64 values for numeric features; int64 codes for categorical."""
    labels: tuple[str, ...] = ()

    @property
    def n_levels(self) -> int:
        if self.is_numeric:
            raise SchemaError(f"numeric feature {self.name!r} has no levels")
        return len(self.labels)

    def missing_mask(self) -> np.ndarray:
        if self.is_numeric:
            return np.isnan(self.values)
        return self.values == -1


class FeatureSet:
    """The resolved inputs (X) and target (y) of one modelling table.

    Parameters
    ----------
    table:
        Source data.
    target:
        Target column name.  Must exist; may be numeric (regression /
        interval targets) or categorical (classification).
    include:
        Explicit list of input column names.  Default: the table
        schema's INPUT columns if a schema is attached, else every
        column except the target and the well-known bookkeeping columns
        (segment id, raw crash count, crash year).
    """

    def __init__(
        self,
        table: DataTable,
        target: str,
        include: list[str] | None = None,
    ):
        if table.n_rows == 0:
            raise FitError("cannot build features from an empty table")
        if target not in table:
            raise MissingColumnError(target, tuple(table.column_names))
        names = self._resolve_inputs(table, target, include)
        if not names:
            raise FitError("no input columns resolved for modelling")
        self.table = table
        self.target_name = target
        self.features: list[Feature] = []
        for name in names:
            col = table.column(name)
            if isinstance(col, NumericColumn):
                self.features.append(Feature(name, True, col.values))
            else:
                assert isinstance(col, CategoricalColumn)
                self.features.append(
                    Feature(name, False, col.codes, col.labels)
                )
        self._target_column = table.column(target)

    @staticmethod
    def _resolve_inputs(
        table: DataTable, target: str, include: list[str] | None
    ) -> list[str]:
        if include is not None:
            for name in include:
                if name not in table:
                    raise MissingColumnError(name, tuple(table.column_names))
            if target in include:
                raise SchemaError(
                    f"target {target!r} cannot also be an input"
                )
            return list(include)
        if table.schema is not None:
            names = [
                n
                for n in table.schema.input_names()
                if n != target and n in table
            ]
            if names:
                return names
        return [
            n
            for n in table.column_names
            if n != target and n not in _DEFAULT_EXCLUDED
        ]

    # -- target views -----------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def input_names(self) -> list[str]:
        return [f.name for f in self.features]

    def binary_target(self) -> tuple[np.ndarray, tuple[str, str]]:
        """Target as 0/1 ints plus the (negative, positive) label pair.

        Categorical targets must have exactly two observed levels;
        numeric targets must contain only the values {0, 1}.
        """
        col = self._target_column
        if isinstance(col, CategoricalColumn):
            present = [
                label
                for code, label in enumerate(col.labels)
                if (col.codes == code).any()
            ]
            if len(present) != 2:
                raise FitError(
                    f"binary target {self.target_name!r} has "
                    f"{len(present)} observed levels: {present}"
                )
            if col.missing_mask().any():
                raise FitError(
                    f"target {self.target_name!r} contains missing values"
                )
            negative, positive = present
            y = (col.codes == col.labels.index(positive)).astype(np.int64)
            return y, (negative, positive)
        values = col.values
        if np.isnan(values).any():
            raise FitError(
                f"target {self.target_name!r} contains missing values"
            )
        uniques = np.unique(values)
        if not np.isin(uniques, (0.0, 1.0)).all() or uniques.size != 2:
            raise FitError(
                f"numeric binary target {self.target_name!r} must take "
                f"exactly the values 0 and 1, found {uniques[:5]}"
            )
        return values.astype(np.int64), ("0", "1")

    def interval_target(self) -> np.ndarray:
        """Target as float values (binary targets coerce to 0.0 / 1.0).

        This is the paper's "target configured as interval" pathway for
        regression trees.
        """
        col = self._target_column
        if isinstance(col, NumericColumn):
            if np.isnan(col.values).any():
                raise FitError(
                    f"target {self.target_name!r} contains missing values"
                )
            return col.values.astype(np.float64)
        y, _labels = self.binary_target()
        return y.astype(np.float64)

    def subset(self, indices: np.ndarray) -> "FeatureSet":
        """FeatureSet over a row subset (shares column resolution)."""
        return FeatureSet(
            self.table.take(indices), self.target_name, self.input_names
        )

    # -- vocabulary alignment ----------------------------------------------
    def vocabularies(self) -> dict[str, tuple[str, ...]]:
        """name → label tuple for every categorical feature."""
        return {
            f.name: f.labels for f in self.features if not f.is_numeric
        }

    def aligned_to(
        self, vocabularies: dict[str, tuple[str, ...]]
    ) -> "FeatureSet":
        """Settle each input's kind and remap categorical codes into a
        fitted model's vocabularies.

        ``vocabularies`` names every categorical input the model was
        fitted on; every other input was numeric.  An input column that
        is entirely missing counts as missing whatever its type here (a
        CSV reader types an all-blank column as numeric).  Any other
        kind mismatch raises :class:`ColumnTypeError` naming the column
        and both kinds: one stray token in a numeric CSV column makes
        the reader type it categorical, and its table-local codes must
        never meet a numeric threshold.

        Categorical codes are table-local; a model fitted on one table
        must translate another table's codes into its own vocabulary
        before comparing against stored split groups.  Labels unseen at
        fit time get an out-of-range code (``len(labels)``): they are
        neither a known level nor missing, so trees route them to the
        largest branch and matrix encoders emit an all-zero block.
        """
        aligned = FeatureSet.__new__(FeatureSet)
        aligned.table = self.table
        aligned.target_name = self.target_name
        aligned._target_column = self._target_column
        aligned.features = []
        for feature in self.features:
            target_labels = vocabularies.get(feature.name)
            if feature.is_numeric != (target_labels is None):
                aligned.features.append(_as_missing(feature, target_labels))
                continue
            if (
                feature.is_numeric
                or target_labels is None
                or target_labels == feature.labels
            ):
                aligned.features.append(feature)
                continue
            if not feature.labels:
                # Every value is missing: the local vocabulary is empty,
                # so there is nothing to remap — only the label tuple
                # needs to switch to the target's.
                aligned.features.append(
                    Feature(feature.name, False, feature.values, target_labels)
                )
                continue
            index = {label: code for code, label in enumerate(target_labels)}
            unseen = len(target_labels)
            remap = np.array(
                [index.get(label, unseen) for label in feature.labels],
                dtype=np.int64,
            )
            codes = feature.values
            new_codes = np.where(
                codes == -1, -1, remap[np.clip(codes, 0, None)]
            )
            aligned.features.append(
                Feature(feature.name, False, new_codes, target_labels)
            )
        return aligned


def _kind(is_numeric: bool) -> str:
    return "numeric" if is_numeric else "categorical"


def _as_missing(
    feature: Feature, target_labels: tuple[str, ...] | None
) -> Feature:
    """An entirely missing input in the fitted kind (categorical when
    ``target_labels`` is given); any other kind mismatch is an error."""
    if not feature.missing_mask().all():
        raise ColumnTypeError(
            f"input column {feature.name!r} is "
            f"{_kind(feature.is_numeric)} in the table, but the model was "
            f"fitted on it as {_kind(target_labels is None)}"
        )
    n = feature.values.shape[0]
    if target_labels is None:
        return Feature(feature.name, True, np.full(n, np.nan))
    return Feature(
        feature.name, False, np.full(n, -1, dtype=np.int64), target_labels
    )
