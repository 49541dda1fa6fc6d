"""Property-based tests on model behaviour.

The two metamorphic properties at the end check chi-square trees
against relations that hold for any correct implementation, not
against earlier output.  Regression trees are left out: their F-test
sums are float sums whose rounding depends on row order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.mining import (
    DecisionTreeClassifier,
    NaiveBayesClassifier,
    RegressionTree,
    TreeConfig,
)
from repro.mining.tree import iter_leaves, iter_nodes
from repro.mining.tree.serialize import node_to_dict


@st.composite
def labelled_tables(draw):
    n = draw(st.integers(min_value=30, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    gen = np.random.default_rng(seed)
    x = gen.normal(0, 1, n)
    missing = gen.random(n) < draw(
        st.sampled_from([0.0, 0.1, 0.3])
    )
    x_objects = [None if m else float(v) for v, m in zip(x, missing)]
    group = gen.choice(["g1", "g2", "g3"], size=n)
    y = (x + (group == "g3") + gen.normal(0, 1, n)) > 0
    # Guarantee both classes.
    y[0], y[1] = True, False
    table = DataTable(
        [
            NumericColumn("x", x_objects),
            CategoricalColumn("group", list(group), ("g1", "g2", "g3")),
            CategoricalColumn(
                "label", ["p" if v else "n" for v in y], ("n", "p")
            ),
        ]
    )
    return table, y.astype(int)


TREE_CONFIG = TreeConfig(min_leaf=5, min_split=10, max_depth=6, max_leaves=16)


@given(labelled_tables())
@settings(max_examples=40, deadline=None)
def test_decision_tree_total_prediction_function(sample):
    """Every row — missing values included — gets a valid probability."""
    table, _y = sample
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    probabilities = model.predict_proba(table)
    assert probabilities.shape == (table.n_rows,)
    assert np.isfinite(probabilities).all()
    assert ((0.0 <= probabilities) & (probabilities <= 1.0)).all()


@given(labelled_tables())
@settings(max_examples=40, deadline=None)
def test_decision_tree_leaf_sizes_partition_training_data(sample):
    table, _y = sample
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    assert (
        sum(leaf.n_samples for leaf in iter_leaves(model.root))
        == table.n_rows
    )


@given(labelled_tables())
@settings(max_examples=40, deadline=None)
def test_decision_tree_train_apply_consistency(sample):
    """apply() on the training table routes each row to a leaf whose
    stored prediction equals the row's predicted probability."""
    table, _y = sample
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    probabilities = model.predict_proba(table)
    leaf_of = {
        leaf.node_id: leaf.prediction for leaf in iter_leaves(model.root)
    }
    leaves = model.apply(table)
    assert all(
        probabilities[i] == leaf_of[leaf_id]
        for i, leaf_id in enumerate(leaves)
    )


@given(labelled_tables())
@settings(max_examples=30, deadline=None)
def test_regression_tree_predictions_within_target_range(sample):
    table, _y = sample
    model = RegressionTree(TREE_CONFIG).fit(table, "label")
    predictions = model.predict(table)
    assert predictions.min() >= 0.0 - 1e-12
    assert predictions.max() <= 1.0 + 1e-12


@given(labelled_tables())
@settings(max_examples=30, deadline=None)
def test_naive_bayes_probabilities_valid(sample):
    table, _y = sample
    model = NaiveBayesClassifier().fit(table, "label")
    probabilities = model.predict_proba(table)
    assert np.isfinite(probabilities).all()
    assert ((0.0 <= probabilities) & (probabilities <= 1.0)).all()


@given(labelled_tables(), st.integers(min_value=1, max_value=10))
@settings(max_examples=25, deadline=None)
def test_row_order_equivariance(sample, seed):
    """Predicting a permuted table permutes the predictions."""
    table, _y = sample
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(table.n_rows)
    base = model.predict_proba(table)
    permuted = model.predict_proba(table.take(perm))
    assert np.array_equal(permuted, base[perm])


def _node_signature(model) -> list[tuple]:
    """Per node, in pre-order: split feature, size, prediction, branch
    kinds and p-value (thresholds move under a transform; the rest
    must not)."""
    return [
        (
            node.node_id,
            None if node.split is None else node.split.feature,
            node.n_samples,
            node.prediction,
            [branch.kind for branch in node.branches],
            None if node.split is None else node.split.p_value,
        )
        for node in iter_nodes(model.root)
    ]


@given(labelled_tables(), st.sampled_from(["exp", "cubic"]))
@settings(max_examples=40, deadline=None)
def test_chi2_tree_is_invariant_under_monotone_transforms(sample, transform):
    """A chi-square tree sees numeric inputs only through their order,
    so a strictly increasing transform of ``x`` keeps every node and
    sends every training row to the same leaf."""
    table, _y = sample
    x = table.numeric("x")
    moved = np.exp(x) if transform == "exp" else 3 * x**3 + 7
    transformed = table.with_column(NumericColumn.from_array("x", moved))
    base = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    model = DecisionTreeClassifier(TREE_CONFIG).fit(transformed, "label")
    assert _node_signature(model) == _node_signature(base)
    assert np.array_equal(model.apply(transformed), base.apply(table))


@given(labelled_tables(), labelled_tables(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_chi2_tree_is_invariant_under_row_permutation(sample, fresh, seed):
    """Training on the rows in another order grows the same tree, which
    scores a fresh table identically."""
    table, _y = sample
    fresh_table, _ = fresh
    perm = np.random.default_rng(seed).permutation(table.n_rows)
    base = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table.take(perm), "label")
    assert node_to_dict(model.root) == node_to_dict(base.root)
    assert np.array_equal(
        model.predict_proba(fresh_table), base.predict_proba(fresh_table)
    )
