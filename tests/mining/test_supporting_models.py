"""Tests for naive Bayes, logistic regression, neural network and M5."""

import numpy as np
import pytest

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.evaluation import BinaryConfusion, accuracy, r_squared, roc_auc
from repro.exceptions import FitError, NotFittedError
from repro.mining import (
    LogisticRegressionClassifier,
    M5ModelTree,
    NaiveBayesClassifier,
    NeuralNetworkClassifier,
)
from tests.conftest import make_classification_table


@pytest.fixture()
def data():
    return make_classification_table(900, seed=17)


class TestNaiveBayes:
    def test_learns_signal(self, data):
        table, y = data
        model = NaiveBayesClassifier().fit(table, "label")
        assert roc_auc(y, model.predict_proba(table)) > 0.85

    def test_probabilities_normalised(self, data):
        table, _y = data
        model = NaiveBayesClassifier().fit(table, "label")
        probabilities = model.predict_proba(table)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_single_class_rejected(self):
        table = DataTable(
            [
                NumericColumn("x", [1.0, 2.0, 3.0]),
                CategoricalColumn("label", ["n", "n", "n"], ("n", "p")),
            ]
        )
        with pytest.raises(FitError):
            NaiveBayesClassifier().fit(table, "label")

    def test_missing_values_skipped(self, data):
        table, y = data
        holed = table.with_column(
            NumericColumn(
                "a",
                [
                    None if i % 3 == 0 else v
                    for i, v in enumerate(table.numeric("a"))
                ],
            )
        )
        model = NaiveBayesClassifier().fit(holed, "label")
        assert roc_auc(y, model.predict_proba(holed)) > 0.75

    def test_laplace_validation(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(laplace=0.0)

    def test_gaussian_separation_sanity(self):
        gen = np.random.default_rng(1)
        x = np.concatenate([gen.normal(0, 1, 200), gen.normal(4, 1, 200)])
        labels = ["n"] * 200 + ["p"] * 200
        table = DataTable(
            [
                NumericColumn.from_array("x", x),
                CategoricalColumn("label", labels, ("n", "p")),
            ]
        )
        model = NaiveBayesClassifier().fit(table, "label")
        probe = DataTable(
            [
                NumericColumn("x", [0.0, 4.0]),
                CategoricalColumn("label", ["n", "p"], ("n", "p")),
            ]
        )
        p = model.predict_proba(probe)
        assert p[0] < 0.1 and p[1] > 0.9


class TestLogisticRegression:
    def test_learns_signal(self, data):
        table, y = data
        model = LogisticRegressionClassifier().fit(table, "label")
        assert roc_auc(y, model.predict_proba(table)) > 0.85

    def test_coefficients_exposed(self, data):
        table, _y = data
        model = LogisticRegressionClassifier().fit(table, "label")
        coef = model.coefficients
        assert "intercept" in coef
        assert "a" in coef
        # 'a' drives the label upward in the fixture.
        assert coef["a"] > 0

    def test_converges(self, data):
        table, _y = data
        model = LogisticRegressionClassifier().fit(table, "label")
        assert model.n_iterations < model.max_iterations

    def test_separable_data_stabilised_by_ridge(self):
        x = np.linspace(-1, 1, 100)
        labels = ["p" if v > 0 else "n" for v in x]
        table = DataTable(
            [
                NumericColumn.from_array("x", x),
                CategoricalColumn("label", labels, ("n", "p")),
            ]
        )
        model = LogisticRegressionClassifier(ridge=1.0).fit(table, "label")
        probabilities = model.predict_proba(table)
        assert np.isfinite(probabilities).all()

    def test_predict_before_fit(self, data):
        table, _y = data
        with pytest.raises(NotFittedError):
            LogisticRegressionClassifier().predict_proba(table)

    def test_single_class_rejected(self):
        table = DataTable(
            [
                NumericColumn("x", [1.0, 2.0]),
                CategoricalColumn("label", ["n", "n"], ("n", "p")),
            ]
        )
        with pytest.raises(FitError):
            LogisticRegressionClassifier().fit(table, "label")

    @pytest.mark.parametrize("ridge", [1.0, 5.0])
    def test_irls_matches_scipy_bfgs(self, small_dataset, ridge):
        """IRLS minimises the penalised negative log-likelihood
        ``-l(w) + ridge/2 * |w[1:]|^2`` (intercept unpenalised): BFGS on
        the same objective, from zero, lands on the same weights."""
        from scipy.optimize import minimize

        from repro.core.thresholds import TARGET_COLUMN, build_threshold_dataset
        from repro.mining.features import FeatureSet

        table = build_threshold_dataset(small_dataset.crash_instances, 8).table
        model = LogisticRegressionClassifier(ridge=ridge, tolerance=1e-10)
        model.fit(table, TARGET_COLUMN)
        features = FeatureSet(table, TARGET_COLUMN)
        x = model._encoder.transform(features)
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        y = features.binary_target()[0].astype(np.float64)

        def objective(w):
            eta = design @ w
            log_likelihood = np.sum(y * eta - np.logaddexp(0.0, eta))
            return -log_likelihood + 0.5 * ridge * np.sum(w[1:] ** 2)

        def gradient(w):
            mu = 1.0 / (1.0 + np.exp(-(design @ w)))
            grad = -(design.T @ (y - mu))
            grad[1:] += ridge * w[1:]
            return grad

        # BFGS may report success=False from precision loss at this
        # gtol; the objective and the weights are what is compared.
        oracle = minimize(
            objective,
            np.zeros(design.shape[1]),
            jac=gradient,
            method="BFGS",
            options={"gtol": 1e-10, "maxiter": 10_000},
        )
        weights = model._weights
        assert objective(weights) <= oracle.fun + 1e-9 * abs(oracle.fun)
        np.testing.assert_allclose(weights, oracle.x, rtol=0, atol=1e-6)


class TestNeuralNetwork:
    def test_learns_signal(self, data):
        table, y = data
        model = NeuralNetworkClassifier(epochs=200, seed=1).fit(
            table, "label"
        )
        assert roc_auc(y, model.predict_proba(table)) > 0.85

    def test_loss_decreases(self, data):
        table, _y = data
        model = NeuralNetworkClassifier(epochs=100, seed=1).fit(
            table, "label"
        )
        assert model.loss_history[-1] < model.loss_history[0]

    def test_deterministic_given_seed(self, data):
        table, _y = data
        a = NeuralNetworkClassifier(epochs=50, seed=3).fit(table, "label")
        b = NeuralNetworkClassifier(epochs=50, seed=3).fit(table, "label")
        assert np.array_equal(a.predict_proba(table), b.predict_proba(table))

    def test_learns_xor_nonlinearity(self):
        gen = np.random.default_rng(5)
        a = gen.choice([-1.0, 1.0], 600)
        b = gen.choice([-1.0, 1.0], 600)
        y = ((a * b) > 0).astype(int)
        table = DataTable(
            [
                NumericColumn.from_array("a", a + gen.normal(0, 0.1, 600)),
                NumericColumn.from_array("b", b + gen.normal(0, 0.1, 600)),
                CategoricalColumn(
                    "label", ["p" if v else "n" for v in y], ("n", "p")
                ),
            ]
        )
        model = NeuralNetworkClassifier(
            hidden_units=8, epochs=500, learning_rate=0.3, seed=2
        ).fit(table, "label")
        cm = BinaryConfusion.from_scores(y, model.predict_proba(table))
        assert accuracy(cm) > 0.9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NeuralNetworkClassifier(hidden_units=0)


class TestM5ModelTree:
    def make_piecewise_linear(self, n=900, seed=4):
        gen = np.random.default_rng(seed)
        x = gen.uniform(-2, 2, n)
        w = gen.uniform(-2, 2, n)
        y = np.where(x > 0, 3 + 2 * w, -3 - 1 * w) + gen.normal(0, 0.2, n)
        table = DataTable(
            [
                NumericColumn.from_array("x", x),
                NumericColumn.from_array("w", w),
                NumericColumn.from_array("y", y),
            ]
        )
        return table, y

    def test_beats_constant_leaves_on_piecewise_linear(self):
        table, y = self.make_piecewise_linear()
        from repro.mining import RegressionTree, TreeConfig

        m5 = M5ModelTree(TreeConfig(max_leaves=4, min_leaf=25, min_split=60))
        m5.fit(table, "y")
        stump = RegressionTree(
            TreeConfig(max_leaves=4, min_leaf=25, min_split=60)
        ).fit(table, "y")
        m5_r2 = r_squared(y, m5.predict(table))
        stump_r2 = r_squared(y, stump.predict(table))
        assert m5_r2 > stump_r2
        assert m5_r2 > 0.9

    def test_missing_values_at_predict(self):
        table, _y = self.make_piecewise_linear(300)
        model = M5ModelTree().fit(table, "y")
        holed = table.with_column(NumericColumn("w", [None] * 300))
        predictions = model.predict(holed)
        assert np.isfinite(predictions).all()

    def test_smoothing_zero_allowed(self):
        table, y = self.make_piecewise_linear(400)
        model = M5ModelTree(smoothing=0.0).fit(table, "y")
        assert r_squared(y, model.predict(table)) > 0.8
