"""Tests for the chi-square / F-test split search, cross-checked
against scipy reference implementations."""

import numpy as np
import pytest
from scipy import stats

from repro.mining.tree.splitting import (
    best_categorical_split_chi2,
    best_categorical_split_f,
    best_numeric_split_chi2,
    best_numeric_split_f,
    chi_square_2x2,
    chi_square_table,
    f_statistic,
)


class TestChiSquare2x2:
    def test_matches_scipy(self):
        table = np.array([[30, 10], [12, 28]])
        ours = float(chi_square_2x2(30, 10, 12, 28))
        expected = stats.chi2_contingency(table, correction=False).statistic
        assert ours == pytest.approx(expected)

    def test_vectorised(self):
        a = np.array([30, 5])
        b = np.array([10, 35])
        c = np.array([12, 20])
        d = np.array([28, 20])
        values = chi_square_2x2(a, b, c, d)
        assert values.shape == (2,)
        assert values[0] == pytest.approx(
            float(chi_square_2x2(30, 10, 12, 28))
        )

    def test_degenerate_margin_is_zero(self):
        assert float(chi_square_2x2(0, 0, 10, 20)) == 0.0

    def test_rxc_table_matches_scipy(self):
        table = np.array([[12, 30], [40, 8], [22, 22]])
        chi2, p, dof = chi_square_table(table)
        expected = stats.chi2_contingency(table, correction=False)
        assert chi2 == pytest.approx(expected.statistic)
        assert p == pytest.approx(expected.pvalue)
        assert dof == expected.dof


class TestFStatistic:
    def test_matches_scipy_oneway(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(1, 1, 60)
        y = np.concatenate([a, b])
        f, df1, df2 = f_statistic(
            np.array([a.sum(), b.sum()]),
            np.array([40.0, 60.0]),
            float((y**2).sum()),
            float(y.sum()),
            100,
        )
        expected = stats.f_oneway(a, b).statistic
        assert float(f) == pytest.approx(expected)
        assert (df1, df2) == (1, 98)


class TestNumericChi2Split:
    def test_finds_true_threshold(self, rng):
        x = rng.uniform(0, 1, 800)
        y = (x > 0.6).astype(int)
        split = best_numeric_split_chi2("x", x, y, min_leaf=20)
        assert split is not None
        assert split.threshold == pytest.approx(0.6, abs=0.03)
        assert split.p_value < 1e-10
        assert split.is_numeric

    def test_no_signal_large_p(self, rng):
        x = rng.uniform(0, 1, 300)
        y = rng.integers(0, 2, 300)
        split = best_numeric_split_chi2("x", x, y, min_leaf=20)
        assert split is None or split.p_value > 1e-4

    def test_min_leaf_respected(self, rng):
        x = rng.uniform(0, 1, 30)
        y = (x > 0.5).astype(int)
        assert best_numeric_split_chi2("x", x, y, min_leaf=20) is None

    def test_missing_branch_flag(self, rng):
        x = rng.uniform(0, 1, 200)
        x[:50] = np.nan
        y = (np.nan_to_num(x, nan=1.0) > 0.5).astype(int)
        split = best_numeric_split_chi2("x", x, y, min_leaf=25)
        assert split is not None
        assert split.has_missing_branch

    def test_bonferroni_inflates_p(self, rng):
        x = rng.uniform(0, 1, 400)
        y = (x > 0.5).astype(int)
        adjusted = best_numeric_split_chi2("x", x, y, 20, bonferroni=True)
        raw = best_numeric_split_chi2("x", x, y, 20, bonferroni=False)
        assert adjusted.p_value >= raw.p_value

    def test_constant_feature_none(self):
        x = np.ones(100)
        y = np.array([0, 1] * 50)
        assert best_numeric_split_chi2("x", x, y, min_leaf=10) is None


class TestNumericFSplit:
    def test_finds_true_threshold(self, rng):
        x = rng.uniform(0, 1, 800)
        y = np.where(x > 0.4, 3.0, 0.0) + rng.normal(0, 0.2, 800)
        split = best_numeric_split_f("x", x, y, min_leaf=20)
        assert split is not None
        assert split.threshold == pytest.approx(0.4, abs=0.03)
        assert split.p_value < 1e-10

    def test_candidate_cap(self, rng):
        x = rng.uniform(0, 1, 2000)
        y = x * 2.0
        split = best_numeric_split_f("x", x, y, 20, max_candidates=16)
        assert split is not None
        assert split.n_candidates <= 16


class TestCategoricalChi2Split:
    def test_groups_by_rate(self, rng):
        codes = rng.integers(0, 3, 900)
        probs = np.array([0.1, 0.12, 0.9])[codes]
        y = (rng.random(900) < probs).astype(int)
        split = best_categorical_split_chi2("c", codes, 3, y, min_leaf=30)
        assert split is not None
        assert not split.is_numeric
        # Levels 0 and 1 have near-identical rates and should merge.
        groups = {frozenset(g) for g in split.groups}
        assert frozenset({0, 1}) in groups
        assert frozenset({2}) in groups

    def test_single_level_none(self):
        codes = np.zeros(100, dtype=np.int64)
        y = np.array([0, 1] * 50)
        assert (
            best_categorical_split_chi2("c", codes, 1, y, min_leaf=10)
            is None
        )

    def test_distinct_levels_stay_separate(self, rng):
        codes = rng.integers(0, 3, 900)
        probs = np.array([0.05, 0.5, 0.95])[codes]
        y = (rng.random(900) < probs).astype(int)
        split = best_categorical_split_chi2(
            "c", codes, 3, y, min_leaf=30, merge_alpha=0.05
        )
        assert split is not None
        assert len(split.groups) == 3


class TestCategoricalFSplit:
    def test_detects_mean_differences(self, rng):
        codes = rng.integers(0, 4, 800)
        y = np.array([0.0, 0.0, 2.0, 2.0])[codes] + rng.normal(
            0, 0.5, 800
        )
        split = best_categorical_split_f("c", codes, 4, y, min_leaf=30)
        assert split is not None
        groups = {frozenset(g) for g in split.groups}
        assert frozenset({0, 1}) in groups
        assert frozenset({2, 3}) in groups

    def test_missing_codes_excluded(self, rng):
        codes = rng.integers(0, 2, 400)
        codes[:100] = -1
        y = codes.astype(float) + rng.normal(0, 0.05, 400)
        split = best_categorical_split_f("c", codes, 2, y, min_leaf=30)
        assert split is not None
        assert split.has_missing_branch


def _two_by_two(x, y, threshold):
    """Rows: x <= threshold, x > threshold (missing x in neither);
    columns: positives, negatives."""
    left = x <= threshold
    right = x > threshold
    return np.array(
        [
            [y[left].sum(), (1 - y[left]).sum()],
            [y[right].sum(), (1 - y[right]).sum()],
        ]
    )


def _signal_data(n, n_positive, seed):
    """A feature that ranks positives higher, with exactly
    ``n_positive`` positives and some missing values."""
    gen = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int64)
    y[gen.choice(n, n_positive, replace=False)] = 1
    x = gen.normal(0, 1, n) + 1.5 * y
    x[gen.random(n) < 0.02] = np.nan
    return x, y


class TestSplitPValueOracles:
    """Split p-values against scipy's tests of the chosen partition."""

    @pytest.mark.parametrize(
        "n, n_positive",
        [(600, 240), (16_750, 174)],  # the second is the paper's CP-64
        ids=["balanced", "cp64"],
    )
    def test_numeric_chi2(self, n, n_positive):
        x, y = _signal_data(n, n_positive, seed=n)
        raw = best_numeric_split_chi2("x", x, y, 25, bonferroni=False)
        table = _two_by_two(x, y, raw.threshold)
        assert table[:, 0].sum() == n_positive - y[np.isnan(x)].sum()
        expected = stats.chi2_contingency(table, correction=False)
        assert raw.statistic == pytest.approx(expected.statistic, rel=1e-9)
        assert raw.p_value == pytest.approx(expected.pvalue, rel=1e-9)
        adjusted = best_numeric_split_chi2("x", x, y, 25, bonferroni=True)
        assert adjusted.n_candidates == raw.n_candidates == 64
        assert adjusted.p_value == pytest.approx(
            min(1.0, expected.pvalue * raw.n_candidates), rel=1e-9
        )

    def test_bonferroni_caps_at_one(self):
        x = np.arange(400.0)
        y = np.arange(400) % 2  # every split is nearly balanced
        raw = best_numeric_split_chi2("x", x, y, 20, bonferroni=False)
        adjusted = best_numeric_split_chi2("x", x, y, 20, bonferroni=True)
        assert raw.p_value * raw.n_candidates > 1.0
        assert adjusted.p_value == 1.0

    def test_numeric_f(self, rng):
        x = rng.uniform(0, 1, 500)
        x[:10] = np.nan
        y = np.where(x > 0.4, 1.0, 0.0) + rng.normal(0, 1.5, 500)
        split = best_numeric_split_f("x", x, y, 20, bonferroni=False)
        expected = stats.f_oneway(
            y[x <= split.threshold], y[x > split.threshold]
        )
        assert split.statistic == pytest.approx(expected.statistic, rel=1e-9)
        assert split.p_value == pytest.approx(expected.pvalue, rel=1e-9)

    def test_nominal_chi2(self, rng):
        codes = rng.integers(0, 4, 900)
        codes[:30] = -1
        y = (rng.random(900) < np.array([0.2, 0.25, 0.5, 0.2])[codes]).astype(int)
        split = best_categorical_split_chi2(
            "c", codes, 4, y, 30, bonferroni=False
        )
        table = np.array(
            [
                [y[np.isin(codes, g)].sum(), (1 - y[np.isin(codes, g)]).sum()]
                for g in split.groups
            ]
        )
        assert table.sum() == 870 and len(split.groups) >= 2
        expected = stats.chi2_contingency(table, correction=False)
        assert split.statistic == pytest.approx(expected.statistic, rel=1e-9)
        assert split.p_value == pytest.approx(expected.pvalue, rel=1e-9)

    def test_nominal_f(self, rng):
        codes = rng.integers(0, 4, 800)
        y = np.array([0.0, 0.1, 1.0, 1.1])[codes] + rng.normal(0, 1, 800)
        split = best_categorical_split_f("c", codes, 4, y, 30, bonferroni=False)
        expected = stats.f_oneway(*(y[np.isin(codes, g)] for g in split.groups))
        assert split.statistic == pytest.approx(expected.statistic, rel=1e-9)
        assert split.p_value == pytest.approx(expected.pvalue, rel=1e-9)
