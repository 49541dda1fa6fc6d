"""Unit tests for the Table 2 measures, verified against hand-worked
values and (for Kappa) the exact formulation printed in the paper."""

import math

import numpy as np
import pytest

from repro.evaluation import (
    BinaryConfusion,
    accuracy,
    kappa,
    mcpv,
    misclassification_rate,
    negative_predictive_value,
    positive_predictive_value,
    r_squared,
    roc_auc,
    sensitivity,
    specificity,
    weighted_precision,
    weighted_recall,
)
from repro.exceptions import EvaluationError


@pytest.fixture()
def cm() -> BinaryConfusion:
    # tp=40 fp=10 tn=35 fn=15
    return BinaryConfusion(tp=40, fp=10, tn=35, fn=15)


class TestTable2Measures:
    def test_accuracy(self, cm):
        assert accuracy(cm) == pytest.approx(75 / 100)

    def test_misclassification_complements_accuracy(self, cm):
        assert accuracy(cm) + misclassification_rate(cm) == pytest.approx(1.0)

    def test_sensitivity(self, cm):
        assert sensitivity(cm) == pytest.approx(40 / 55)

    def test_specificity(self, cm):
        assert specificity(cm) == pytest.approx(35 / 45)

    def test_ppv(self, cm):
        assert positive_predictive_value(cm) == pytest.approx(40 / 50)

    def test_npv(self, cm):
        assert negative_predictive_value(cm) == pytest.approx(35 / 50)

    def test_mcpv_is_min(self, cm):
        assert mcpv(cm) == pytest.approx(min(40 / 50, 35 / 50))

    def test_mcpv_nan_when_class_never_predicted(self):
        cm = BinaryConfusion(tp=0, fp=0, tn=90, fn=10)
        assert math.isnan(mcpv(cm))
        assert math.isnan(positive_predictive_value(cm))

    def test_kappa_matches_paper_formula(self, cm):
        n = cm.total
        io = (cm.tp + cm.tn) / n
        ie = (
            (cm.tn + cm.fn) * (cm.tn + cm.fp)
            + (cm.tp + cm.fp) * (cm.tp + cm.fn)
        ) / n**2
        assert kappa(cm) == pytest.approx((io - ie) / (1 - ie))

    def test_kappa_perfect_agreement(self):
        assert kappa(BinaryConfusion(tp=50, fp=0, tn=50, fn=0)) == 1.0

    def test_kappa_chance_agreement_is_zero(self):
        # Independent prediction: every cell proportional to marginals.
        cm = BinaryConfusion(tp=25, fp=25, tn=25, fn=25)
        assert kappa(cm) == pytest.approx(0.0)

    def test_kappa_degenerate_single_class(self):
        cm = BinaryConfusion(tp=0, fp=0, tn=100, fn=0)
        assert kappa(cm) == 0.0

    def test_weighted_recall_equals_accuracy_binary(self, cm):
        assert weighted_recall(cm) == pytest.approx(accuracy(cm))

    def test_weighted_precision_bounds(self, cm):
        assert 0.0 <= weighted_precision(cm) <= 1.0


class TestImbalanceStory:
    """The paper's argument: accuracy/misclassification look excellent
    under extreme imbalance while MCPV exposes the failing class."""

    def test_extreme_imbalance_misleads_accuracy(self):
        # CP-64-like: 16,576 negatives, 174 positives, model predicts
        # everything negative.
        cm = BinaryConfusion(tp=0, fp=0, tn=16576, fn=174)
        assert accuracy(cm) > 0.98
        assert misclassification_rate(cm) < 0.02
        assert math.isnan(mcpv(cm))
        assert kappa(cm) == pytest.approx(0.0)

    def test_mcpv_rewards_minority_competence(self):
        competent = BinaryConfusion(tp=150, fp=30, tn=16546, fn=24)
        assert mcpv(competent) > 0.8
        assert kappa(competent) > 0.8


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, y.mean())
        assert r_squared(y, pred) == pytest.approx(0.0)

    def test_worse_than_mean_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y[::-1].copy()) < 0

    def test_constant_actual_nan(self):
        assert math.isnan(r_squared(np.ones(5), np.zeros(5)))

    def test_shape_mismatch(self):
        with pytest.raises(EvaluationError):
            r_squared(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(EvaluationError):
            r_squared(np.array([]), np.array([]))


class TestRocAuc:
    def test_perfect_ranking(self):
        actual = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(actual, scores) == pytest.approx(1.0)

    def test_reverse_ranking(self):
        actual = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(actual, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        gen = np.random.default_rng(3)
        actual = gen.integers(0, 2, 4000)
        scores = gen.random(4000)
        assert roc_auc(actual, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_get_half_credit(self):
        actual = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert roc_auc(actual, scores) == pytest.approx(0.5)

    def test_single_class_nan(self):
        assert math.isnan(roc_auc(np.ones(4), np.arange(4.0)))

    def test_matches_scipy_mannwhitney(self):
        from scipy import stats

        gen = np.random.default_rng(9)
        actual = gen.integers(0, 2, 300)
        scores = gen.normal(size=300) + actual
        u = stats.mannwhitneyu(
            scores[actual == 1], scores[actual == 0]
        ).statistic
        expected = u / ((actual == 1).sum() * (actual == 0).sum())
        assert roc_auc(actual, scores) == pytest.approx(expected)


def _loop_roc_auc(actual, scores):
    """The tie-rank loop that ``roc_auc`` replaced, kept as its reference."""
    positives = int(np.count_nonzero(actual == 1))
    negatives = actual.size - positives
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(actual.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    position = 1.0
    while i < sorted_scores.size:
        j = i
        while (
            j + 1 < sorted_scores.size
            and sorted_scores[j + 1] == sorted_scores[i]
        ):
            j += 1
        mean_rank = (position + position + (j - i)) / 2.0
        ranks[order[i : j + 1]] = mean_rank
        position += j - i + 1
        i = j + 1
    rank_sum = float(ranks[actual == 1].sum())
    u = rank_sum - positives * (positives + 1) / 2.0
    return u / (positives * negatives)


def test_roc_auc_tie_ranks_match_the_loop():
    """Bit for bit, on scores with heavy ties, NaNs, signed zeros and
    constant runs."""
    gen = np.random.default_rng(2011)
    for case in range(1500):
        n = int(gen.integers(2, 400))
        actual = gen.integers(0, 2, n)
        actual[:2] = (0, 1)
        kind = case % 4
        if kind == 0:
            scores = gen.normal(size=n)
        elif kind == 1:
            scores = gen.integers(0, int(gen.integers(1, 6)), n).astype(float)
        elif kind == 2:
            scores = np.full(n, 0.25)
        else:
            scores = np.round(gen.normal(size=n), 1) * gen.choice([-1.0, 1.0], n)
        scores[gen.random(n) < gen.choice([0.0, 0.05, 0.5])] = np.nan
        assert roc_auc(actual, scores).hex() == _loop_roc_auc(actual, scores).hex()
