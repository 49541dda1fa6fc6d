"""Model assessment measures (Table 2 of the paper).

Each function mirrors one row of Table 2, including the paper's own
contribution:

* :func:`mcpv` — the **minimum class predictive value**,
  ``Min(PPV, NPV)``, the paper's answer to accuracy/misclassification
  being "not suitable with unbalanced datasets"; and
* :func:`kappa` — Cohen's Kappa, "the most useful tool", co-used with
  MCPV.

Degenerate denominators (e.g. a model that never predicts the positive
class) return ``nan`` rather than raising: the sweeps in
:mod:`repro.core.study` must keep running across extreme-imbalance
thresholds where individual measures legitimately have no value — which
is, itself, the paper's point about those measures.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.confusion import BinaryConfusion
from repro.exceptions import EvaluationError

__all__ = [
    "accuracy",
    "misclassification_rate",
    "sensitivity",
    "recall",
    "specificity",
    "positive_predictive_value",
    "negative_predictive_value",
    "precision",
    "mcpv",
    "kappa",
    "weighted_precision",
    "weighted_recall",
    "r_squared",
    "roc_auc",
]


def _ratio(numerator: float, denominator: float) -> float:
    return float("nan") if denominator == 0 else numerator / denominator


# -- Table 2, row by row ---------------------------------------------------

def accuracy(cm: BinaryConfusion) -> float:
    """(TP+TN)/(TP+FP+TN+FN) — "not suitable with unbalanced datasets"."""
    return (cm.tp + cm.tn) / cm.total


def misclassification_rate(cm: BinaryConfusion) -> float:
    """Share of instances misclassified (1 − accuracy)."""
    return (cm.fp + cm.fn) / cm.total


def sensitivity(cm: BinaryConfusion) -> float:
    """TP/(TP+FN): proportion of crash-prone roads classified as such."""
    return _ratio(cm.tp, cm.tp + cm.fn)


#: The paper lists "Sensitivity / Recall" as one measure.
recall = sensitivity


def specificity(cm: BinaryConfusion) -> float:
    """TN/(FP+TN): non-crash-prone roads with a negative test result."""
    return _ratio(cm.tn, cm.fp + cm.tn)


def positive_predictive_value(cm: BinaryConfusion) -> float:
    """TP/(TP+FP): instances with a positive result that carry the risk."""
    return _ratio(cm.tp, cm.tp + cm.fp)


#: PPV is precision of the positive class.
precision = positive_predictive_value


def negative_predictive_value(cm: BinaryConfusion) -> float:
    """TN/(TN+FN): negative-result instances that are truly negative."""
    return _ratio(cm.tn, cm.tn + cm.fn)


def mcpv(cm: BinaryConfusion) -> float:
    """Minimum class predictive value — the paper's assessment statistic.

    ``Min(PPV, NPV)``: "our assumption was that the lowest value of one
    of these values was the effective predictive value of the model."
    NaN if either predictive value is undefined (a class never
    predicted), which is precisely the extreme-imbalance failure the
    statistic is designed to expose.
    """
    ppv = positive_predictive_value(cm)
    npv = negative_predictive_value(cm)
    if np.isnan(ppv) or np.isnan(npv):
        return float("nan")
    return min(ppv, npv)


def kappa(cm: BinaryConfusion) -> float:
    """Cohen's Kappa exactly as formulated in Table 2.

    Io = (TP+TN)/n;  Ie = ((TN+FN)(TN+FP)+(TP+FP)(TP+FN))/n²;
    κ = (Io − Ie)/(1 − Ie).  κ = 0 when agreement equals chance and the
    denominator vanishes (all instances in one predicted class of a
    one-class problem).
    """
    n = cm.total
    observed = (cm.tp + cm.tn) / n
    expected = (
        (cm.tn + cm.fn) * (cm.tn + cm.fp) + (cm.tp + cm.fp) * (cm.tp + cm.fn)
    ) / (n * n)
    if expected == 1.0:
        return 0.0
    return (observed - expected) / (1.0 - expected)


def weighted_precision(cm: BinaryConfusion) -> float:
    """Class-weighted precision (WEKA's 'Weighted Avg. Precision',
    reported in Table 5 for the Bayesian models)."""
    ppv = positive_predictive_value(cm)
    npv = negative_predictive_value(cm)
    weights_pos = cm.actual_positives / cm.total
    weights_neg = cm.actual_negatives / cm.total
    ppv = 0.0 if np.isnan(ppv) else ppv
    npv = 0.0 if np.isnan(npv) else npv
    return weights_pos * ppv + weights_neg * npv


def weighted_recall(cm: BinaryConfusion) -> float:
    """Class-weighted recall (equals accuracy for binary problems)."""
    sens = sensitivity(cm)
    spec = specificity(cm)
    sens = 0.0 if np.isnan(sens) else sens
    spec = 0.0 if np.isnan(spec) else spec
    return (
        cm.actual_positives * sens + cm.actual_negatives * spec
    ) / cm.total


# -- interval-target and score-based measures ----------------------------------

def r_squared(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination 1 − SS(err)/SS(total).

    The regression-tree headline of Tables 3 and 4.  Returns NaN when
    the actuals are constant (SS(total) = 0) — another measure the
    paper flags as "misleading with highly unbalanced datasets".
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape:
        raise EvaluationError(
            f"shape mismatch: actual {actual.shape}, predicted "
            f"{predicted.shape}"
        )
    if actual.size == 0:
        raise EvaluationError("cannot compute R² of empty arrays")
    ss_total = float(((actual - actual.mean()) ** 2).sum())
    if ss_total == 0.0:
        return float("nan")
    ss_err = float(((actual - predicted) ** 2).sum())
    return 1.0 - ss_err / ss_total


def roc_auc(actual: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann–Whitney) identity.

    Ties receive half credit.  NaN when either class is absent — with
    174 positives among 16,750 the paper warns AUC "can be misleading",
    but it is still computable; it is *undefined* only for one-class
    data.
    """
    actual = np.asarray(actual)
    scores = np.asarray(scores, dtype=np.float64)
    if actual.shape != scores.shape:
        raise EvaluationError(
            f"shape mismatch: actual {actual.shape}, scores {scores.shape}"
        )
    positives = int(np.count_nonzero(actual == 1))
    negatives = int(np.count_nonzero(actual == 0))
    if positives + negatives != actual.size:
        raise EvaluationError("actual must be 0/1 for ROC AUC")
    if positives == 0 or negatives == 0:
        return float("nan")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # Average ranks over runs of tied scores.  NaN != NaN, so every NaN
    # is a run of its own.
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    )
    lengths = np.diff(np.append(starts, sorted_scores.size))
    position = starts + 1.0
    mean_rank = (position + position + (lengths - 1)) / 2.0
    ranks = np.empty(actual.size, dtype=np.float64)
    ranks[order] = np.repeat(mean_rank, lengths)
    rank_sum = float(ranks[np.asarray(actual) == 1].sum())
    u = rank_sum - positives * (positives + 1) / 2.0
    return u / (positives * negatives)
