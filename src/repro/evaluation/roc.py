"""ROC curve construction.

:func:`roc_curve` produces the (FPR, TPR) polyline across all score
thresholds; its trapezoidal area agrees with the rank-based
:func:`~repro.evaluation.metrics.roc_auc` (tested as an invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EvaluationError

__all__ = ["RocCurve", "roc_curve"]


@dataclass(frozen=True)
class RocCurve:
    """ROC polyline with the thresholds that generated each vertex."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def auc(self) -> float:
        """Area under the polyline (trapezoidal)."""
        return float(np.trapezoid(self.tpr, self.fpr))


def roc_curve(actual: np.ndarray, scores: np.ndarray) -> RocCurve:
    """Compute the ROC curve of scores against 0/1 actuals."""
    actual = np.asarray(actual)
    scores = np.asarray(scores, dtype=np.float64)
    if actual.shape != scores.shape:
        raise EvaluationError(
            f"shape mismatch: actual {actual.shape}, scores {scores.shape}"
        )
    positives = int(np.count_nonzero(actual == 1))
    negatives = int(np.count_nonzero(actual == 0))
    if positives == 0 or negatives == 0:
        raise EvaluationError("ROC curve requires both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_actual = np.asarray(actual)[order]
    sorted_scores = scores[order]
    tp_cum = np.cumsum(sorted_actual == 1)
    fp_cum = np.cumsum(sorted_actual == 0)
    # Keep only the last index of each tied-score run.
    distinct = np.flatnonzero(np.diff(sorted_scores, append=-np.inf))
    tpr = tp_cum[distinct] / positives
    fpr = fp_cum[distinct] / negatives
    thresholds = sorted_scores[distinct]
    return RocCurve(
        fpr=np.concatenate([[0.0], fpr]),
        tpr=np.concatenate([[0.0], tpr]),
        thresholds=np.concatenate([[np.inf], thresholds]),
    )
