"""Tests for decision trees, regression trees and rule extraction."""

import numpy as np
import pytest

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.evaluation import BinaryConfusion, accuracy, r_squared
from repro.exceptions import ConfigurationError, NotFittedError
from repro.mining import (
    DecisionTreeClassifier,
    RegressionTree,
    TreeConfig,
    extract_rules,
    format_rules,
)
from repro.mining.features import FeatureSet
from repro.mining.tree import iter_leaves
from tests.conftest import make_classification_table


class TestTreeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TreeConfig(min_leaf=10, min_split=15)
        with pytest.raises(ValueError):
            TreeConfig(max_leaves=1)

    @pytest.mark.parametrize("max_candidates", [0, -1])
    def test_max_candidates_must_be_positive(self, max_candidates):
        # 0 used to disable every numeric split silently, and -1 failed
        # mid-growth inside numpy.
        with pytest.raises(ConfigurationError, match="max_candidates"):
            TreeConfig(max_candidates=max_candidates)
        assert TreeConfig(max_candidates=1).max_candidates == 1

    @pytest.mark.parametrize("merge_alpha", [0.0, -1.0, 1.5, float("nan")])
    def test_merge_alpha_must_be_a_probability(self, merge_alpha):
        # 1.5 used to disable CHAID merging silently, and 0, negative
        # values and NaN merged every nominal attribute down to two groups.
        with pytest.raises(ConfigurationError, match="merge_alpha"):
            TreeConfig(merge_alpha=merge_alpha)
        assert TreeConfig(merge_alpha=1.0).merge_alpha == 1.0

    def test_saved_model_with_bad_merge_alpha_is_rejected(self):
        # Artefacts rebuild their config with TreeConfig(**data["config"]).
        table, _y = make_classification_table(300, seed=5)
        data = DecisionTreeClassifier(
            TreeConfig(min_leaf=25, min_split=60)
        ).fit(table, "label").to_dict()
        data["config"]["merge_alpha"] = 1.5
        with pytest.raises(ConfigurationError, match="merge_alpha"):
            DecisionTreeClassifier.from_dict(data)


class TestDecisionTree:
    def test_learns_signal(self):
        table, y = make_classification_table(1200, seed=3)
        model = DecisionTreeClassifier(
            TreeConfig(min_leaf=30, min_split=60)
        ).fit(table, "label")
        cm = BinaryConfusion.from_scores(y, model.predict_proba(table))
        assert accuracy(cm) > 0.75

    def test_predict_before_fit(self):
        table, _y = make_classification_table(50)
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(table)

    def test_class_labels_captured(self):
        table, _y = make_classification_table(300)
        model = DecisionTreeClassifier().fit(table, "label")
        assert model.class_labels == ("neg", "pos")
        labels = model.predict_labels(table)
        assert set(labels) <= {"neg", "pos"}

    def test_max_leaves_respected(self):
        table, _y = make_classification_table(2000, seed=5)
        model = DecisionTreeClassifier(
            TreeConfig(max_leaves=6, min_leaf=25, min_split=60)
        ).fit(table, "label")
        assert 2 <= model.n_leaves <= 6

    def test_min_leaf_respected(self):
        table, _y = make_classification_table(800, seed=5)
        model = DecisionTreeClassifier(
            TreeConfig(min_leaf=50, min_split=120)
        ).fit(table, "label")
        for leaf in iter_leaves(model.root):
            assert leaf.n_samples >= 50

    def test_pure_target_single_leaf(self):
        table = DataTable(
            [
                NumericColumn("x", list(np.linspace(0, 1, 200))),
                CategoricalColumn("label", ["n"] * 200, ("n", "p")),
            ]
        )
        # Force both labels into the vocabulary but only one observed.
        with pytest.raises(Exception):
            # single observed class cannot form a binary target
            DecisionTreeClassifier().fit(table, "label")

    def test_probabilities_in_unit_interval(self):
        table, _y = make_classification_table(500, seed=2)
        model = DecisionTreeClassifier().fit(table, "label")
        probabilities = model.predict_proba(table)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_missing_values_handled_at_predict(self):
        table, _y = make_classification_table(600, seed=9)
        model = DecisionTreeClassifier().fit(table, "label")
        broken = table.with_column(
            NumericColumn("a", [None] * table.n_rows)
        )
        probabilities = model.predict_proba(broken)
        assert probabilities.shape == (table.n_rows,)
        assert not np.isnan(probabilities).any()

    def test_apply_returns_leaf_ids(self):
        table, _y = make_classification_table(400, seed=4)
        model = DecisionTreeClassifier().fit(table, "label")
        leaves = model.apply(table)
        leaf_ids = {leaf.node_id for leaf in iter_leaves(model.root)}
        assert set(leaves.tolist()) <= leaf_ids

    def test_leaf_summary_sizes_sum_to_n(self):
        table, _y = make_classification_table(500, seed=6)
        model = DecisionTreeClassifier().fit(table, "label")
        total = sum(entry["n_samples"] for entry in model.leaf_summary())
        assert total == table.n_rows

    def test_deterministic(self):
        table, _y = make_classification_table(400, seed=8)
        a = DecisionTreeClassifier().fit(table, "label")
        b = DecisionTreeClassifier().fit(table, "label")
        assert np.array_equal(a.predict_proba(table), b.predict_proba(table))

    def test_alpha_gates_growth(self):
        table, _y = make_classification_table(500, seed=10, noise=20.0)
        strict = DecisionTreeClassifier(
            TreeConfig(alpha=1e-12)
        ).fit(table, "label")
        lax = DecisionTreeClassifier(TreeConfig(alpha=0.9999)).fit(
            table, "label"
        )
        assert strict.n_leaves <= lax.n_leaves


class TestRegressionTree:
    def make_regression_table(self, n=800, seed=0):
        gen = np.random.default_rng(seed)
        x = gen.uniform(0, 1, n)
        group = gen.choice(["u", "v"], size=n)
        y = 3.0 * (x > 0.5) + 2.0 * (group == "v") + gen.normal(0, 0.3, n)
        table = DataTable(
            [
                NumericColumn.from_array("x", x),
                CategoricalColumn("group", list(group), ("u", "v")),
                NumericColumn.from_array("y", y),
            ]
        )
        return table, y

    def test_explains_variance(self):
        table, y = self.make_regression_table()
        model = RegressionTree().fit(table, "y")
        assert r_squared(y, model.predict(table)) > 0.8

    def test_score_r_squared_helper(self):
        table, _y = self.make_regression_table()
        model = RegressionTree().fit(table, "y")
        assert model.score_r_squared(table) > 0.8

    def test_binary_target_as_interval(self):
        table, y = make_classification_table(800, seed=13)
        model = RegressionTree().fit(table, "label")
        predictions = model.predict(table)
        assert predictions.min() >= 0.0 and predictions.max() <= 1.0
        assert r_squared(y.astype(float), predictions) > 0.3

    def test_leaf_count_reported(self):
        table, _y = self.make_regression_table()
        model = RegressionTree(TreeConfig(max_leaves=8)).fit(table, "y")
        assert 2 <= model.n_leaves <= 8

    def test_predict_before_fit(self):
        table, _y = self.make_regression_table(50)
        with pytest.raises(NotFittedError):
            RegressionTree().predict(table)


class TestRules:
    def test_rules_cover_all_leaves(self):
        table, _y = make_classification_table(600, seed=21)
        model = DecisionTreeClassifier().fit(table, "label")
        features = FeatureSet(table, "label")
        rules = extract_rules(model.root, features)
        assert len(rules) == model.n_leaves
        assert sum(rule.n_samples for rule in rules) == table.n_rows

    def test_rule_rendering(self):
        table, _y = make_classification_table(600, seed=22)
        model = DecisionTreeClassifier().fit(table, "label")
        features = FeatureSet(table, "label")
        rules = extract_rules(model.root, features)
        text = format_rules(rules, limit=3)
        assert "IF " in text
        assert "prediction=" in text
        if len(rules) > 3:
            assert "more rules" in text

    def test_single_leaf_tree_rule(self):
        gen = np.random.default_rng(0)
        table = DataTable(
            [
                NumericColumn.from_array("x", gen.random(100)),
                CategoricalColumn(
                    "label",
                    list(gen.choice(["n", "p"], size=100)),
                    ("n", "p"),
                ),
            ]
        )
        model = DecisionTreeClassifier(
            TreeConfig(alpha=1e-9, min_leaf=25, min_split=60)
        ).fit(table, "label")
        features = FeatureSet(table, "label")
        rules = extract_rules(model.root, features)
        if model.n_leaves == 1:
            assert rules[0].conditions == ()
            assert str(rules[0]).startswith("IF TRUE")
