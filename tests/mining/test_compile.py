"""Compiled scoring plans: parity with ``route_rows`` and artefact safety.

The acceptance contract of the compiled-kernel subsystem (ISSUE:
compiled scoring kernels) is that lowering a fitted tree to flat
arrays is a pure transformation — every backend produces predictions
and leaf assignments **bit-identical** to the interpreted
:func:`~repro.mining.tree.structure.route_rows` walk, on any input the
interpreter accepts: missing values, labels never seen at fit time,
single-leaf trees.  The hypothesis tests here enforce that, and the
rest of the module covers the persistence surface (``from_dict``
validation rejects every payload that could aim the C kernel outside
its buffers) and the interpreted fallback.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.exceptions import TreeCompileError
from repro.mining import DecisionTreeClassifier, RegressionTree, TreeConfig
from repro.mining.tree import (
    PlanInput,
    TreePlan,
    compile_tree,
    route_rows,
)
from repro.mining.tree.compile import PlanRows, plan_inputs

TREE_CONFIG = TreeConfig(min_leaf=5, min_split=10, max_depth=6, max_leaves=16)


def _make_table(seed: int, n: int, missing_rate: float, unseen: bool):
    """A mixed-type labelled table; ``unseen=True`` adds a categorical
    label outside the fit vocabulary (legal at scoring time)."""
    gen = np.random.default_rng(seed)
    x = gen.normal(0, 1, n)
    x_missing = gen.random(n) < missing_rate
    x_objects = [None if m else float(v) for v, m in zip(x, x_missing)]
    levels = ["g1", "g2", "g3", "zz"] if unseen else ["g1", "g2", "g3"]
    group = [
        None if gen.random() < missing_rate else str(gen.choice(levels))
        for _ in range(n)
    ]
    y = (x + np.array([g == "g3" for g in group]) + gen.normal(0, 1, n)) > 0
    y[0], y[1] = True, False
    return DataTable(
        [
            NumericColumn("x", x_objects),
            NumericColumn("w", list(gen.normal(0, 2, n))),
            CategoricalColumn("group", group, tuple(levels)),
            CategoricalColumn(
                "label", ["p" if v else "n" for v in y], ("n", "p")
            ),
        ]
    )


def _assert_plan_parity(model, score_table):
    """plan.evaluate == route_rows, bitwise, on every backend."""
    features = model._features_for(score_table)
    expected_pred, expected_leaf = route_rows(model.root, features)
    plan = model.scoring_plan()
    assert plan is not None
    for backend in (None, "numpy"):
        got_pred, got_leaf = plan.evaluate(features, backend=backend)
        assert np.array_equal(got_pred, expected_pred, equal_nan=True)
        assert np.array_equal(got_leaf, expected_leaf)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=30, max_value=120),
    missing_rate=st.sampled_from([0.0, 0.1, 0.3]),
    unseen=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_classifier_plan_matches_route_rows(seed, n, missing_rate, unseen):
    """Core parity property: compiled output is bit-identical to the
    interpreted walk, including missing values and unseen labels."""
    fit_table = _make_table(seed, n, missing_rate, unseen=False)
    model = DecisionTreeClassifier(TREE_CONFIG).fit(fit_table, "label")
    score_table = _make_table(seed + 1, n, missing_rate, unseen=unseen)
    _assert_plan_parity(model, score_table)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    missing_rate=st.sampled_from([0.0, 0.2]),
)
@settings(max_examples=15, deadline=None)
def test_regression_plan_matches_route_rows(seed, missing_rate):
    fit_table = _make_table(seed, 90, missing_rate, unseen=False)
    # "w" has no missing values (a regression target must be complete);
    # "x" and "group" still exercise missing-value routing as inputs.
    model = RegressionTree(TREE_CONFIG).fit(fit_table, "w")
    score_table = _make_table(seed + 1, 70, missing_rate, unseen=True)
    _assert_plan_parity(model, score_table)


def test_single_leaf_tree_compiles_and_matches():
    """A tree that never splits lowers to a one-node plan."""
    table = _make_table(3, 40, 0.1, unseen=False)
    no_split = TreeConfig(min_leaf=100, min_split=200)
    model = DecisionTreeClassifier(no_split).fit(table, "label")
    assert model.n_leaves == 1
    plan = model.scoring_plan()
    assert plan is not None and plan.n_nodes == 1
    _assert_plan_parity(model, _make_table(4, 25, 0.3, unseen=True))


def test_predict_proba_uses_the_plan(monkeypatch):
    """The public prediction path routes through the compiled plan."""
    table = _make_table(5, 80, 0.1, unseen=False)
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    expected = model.predict_proba(table)
    plan = model.scoring_plan()
    assert plan is not None
    calls = []
    original = plan.evaluate

    def spy(features, backend=None):
        calls.append(features.n_rows)
        return original(features, backend)

    monkeypatch.setattr(plan, "evaluate", spy)
    assert np.array_equal(model.predict_proba(table), expected)
    assert calls == [table.n_rows]


class TestInterpretedFallback:
    def test_non_canonical_tree_refuses_to_compile(self):
        table = _make_table(7, 80, 0.0, unseen=False)
        model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
        # Sabotage one numeric split: the le/gt thresholds disagree,
        # which the flat layout cannot represent faithfully.
        from repro.mining.tree import iter_nodes

        split_node = next(
            node
            for node in iter_nodes(model.root)
            if not node.is_leaf
            and any(b.kind == "le" for b in node.branches)
        )
        for branch in split_node.branches:
            if branch.kind == "le":
                branch.threshold = (branch.threshold or 0.0) + 1.0
        with pytest.raises(TreeCompileError, match="non-canonical"):
            compile_tree(
                model.root,
                plan_inputs(model.input_names, model.vocabularies),
            )
        # The model itself still predicts, via the interpreted router.
        model._reset_plan()
        probabilities = model.predict_proba(table)
        assert model.scoring_plan() is None
        expected, _ = route_rows(model.root, model._features_for(table))
        assert np.array_equal(probabilities, expected)

    def test_unknown_backend_rejected(self):
        table = _make_table(9, 60, 0.0, unseen=False)
        model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
        plan = model.scoring_plan()
        with pytest.raises(TreeCompileError, match="backend"):
            plan.evaluate(model._features_for(table), backend="cuda")


class TestPersistence:
    def _plan(self, seed=11):
        table = _make_table(seed, 100, 0.1, unseen=False)
        model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
        plan = model.scoring_plan()
        assert plan is not None and plan.n_nodes > 1
        return model, plan, table

    def test_roundtrip_is_stable_and_json_safe(self):
        _model, plan, _table = self._plan()
        payload = plan.to_dict()
        rebuilt = TreePlan.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload
        assert rebuilt.inputs == plan.inputs

    def test_roundtripped_plan_evaluates_identically(self):
        model, plan, table = self._plan()
        rebuilt = TreePlan.from_dict(plan.to_dict())
        features = model._features_for(table)
        expected = plan.evaluate(features)
        got = rebuilt.evaluate(features)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_model_artefact_carries_the_plan(self):
        model, plan, table = self._plan()
        data = model.to_dict()
        assert data["scoring_plan"] == plan.to_dict()
        restored = DecisionTreeClassifier.from_dict(data)
        # The persisted plan is adopted — no recompile happened.
        assert restored._plan is not None
        assert restored._plan.to_dict() == plan.to_dict()
        assert np.array_equal(
            restored.predict_proba(table), model.predict_proba(table)
        )

    def test_stale_plan_payload_recompiles_silently(self):
        model, _plan, table = self._plan()
        data = model.to_dict()
        data["scoring_plan"]["plan_format_version"] = 999
        restored = DecisionTreeClassifier.from_dict(data)
        assert restored._plan is None  # dropped, recompiles lazily
        assert np.array_equal(
            restored.predict_proba(table), model.predict_proba(table)
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.__setitem__("kind", p["kind"][:-1]),
            lambda p: p["kind"].__setitem__(0, 7),
            lambda p: p["le_child"].__setitem__(0, len(p["kind"]) + 3),
            lambda p: p["gt_child"].__setitem__(0, -2),
            lambda p: p["le_child"].__setitem__(0, 2**31 + 5),
            lambda p: p.__setitem__("lut", []),
            lambda p: p.__setitem__("threshold", "nope"),
            lambda p: p.pop("prediction"),
        ],
        ids=[
            "ragged-arrays",
            "unknown-kind",
            "child-past-end",
            "negative-child",
            "int32-wrapping-child",
            "lut-slice-out-of-range",
            "non-numeric-threshold",
            "missing-key",
        ],
    )
    def test_from_dict_rejects_malformed_payloads(self, corrupt):
        """Every payload that could aim the native kernel outside its
        buffers (or wrap during the int32 narrowing) is rejected."""
        _model, plan, _table = self._plan()
        payload = plan.to_dict()
        corrupt(payload)
        with pytest.raises(TreeCompileError):
            TreePlan.from_dict(payload)

    def test_attach_plan_rejects_mismatched_models(self):
        model_a, plan_a, _ = self._plan(seed=11)
        table_b = DataTable(
            [
                NumericColumn("other", list(range(40))),
                CategoricalColumn(
                    "label",
                    ["p" if i % 2 else "n" for i in range(40)],
                    ("n", "p"),
                ),
            ]
        )
        model_b = DecisionTreeClassifier(TREE_CONFIG).fit(table_b, "label")
        with pytest.raises(TreeCompileError, match="inputs"):
            model_b.attach_plan(plan_a)


def test_numpy_and_native_backends_agree():
    """When the native kernel is available it must agree with the
    numpy oracle; when it is not, the default backend IS numpy and
    this reduces to a self-check."""
    table = _make_table(21, 150, 0.2, unseen=False)
    model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
    plan = model.scoring_plan()
    score = _make_table(22, 130, 0.2, unseen=True)
    features = model._features_for(score)
    default_pred, default_leaf = plan.evaluate(features)
    numpy_pred, numpy_leaf = plan.evaluate(features, backend="numpy")
    assert np.array_equal(default_pred, numpy_pred)
    assert np.array_equal(default_leaf, numpy_leaf)


class TestPlanRows:
    """Blocks already in plan layout (what the serving encoder builds)."""

    def _model(self):
        table = _make_table(31, 120, 0.2, unseen=False)
        model = DecisionTreeClassifier(TREE_CONFIG).fit(table, "label")
        return model, model.scoring_plan(), _make_table(32, 60, 0.2, unseen=True)

    @staticmethod
    def _block(plan, features) -> PlanRows:
        numeric, codes = plan._columns(features)
        return PlanRows(np.array(numeric), np.array(codes))

    def test_a_block_evaluates_like_its_feature_set(self):
        model, plan, score = self._model()
        features = model._features_for(score)
        block = self._block(plan, features)
        for backend in (None, "numpy"):
            got = plan.evaluate(block, backend=backend)
            expected = plan.evaluate(features, backend=backend)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: PlanRows(b.values, b.codes - 1),
            lambda b: PlanRows(b.values, b.codes + 4),
            lambda b: PlanRows(b.values[:-1], b.codes),
            lambda b: PlanRows(b.values.astype(np.float32), b.codes),
            lambda b: PlanRows(np.asfortranarray(b.values), b.codes),
            lambda b: PlanRows(b.values, b.codes[:, :-1]),
        ],
        ids=[
            "code-below-slot-0",
            "code-past-unseen",
            "missing-numeric-input",
            "float32-values",
            "non-contiguous-values",
            "ragged-blocks",
        ],
    )
    def test_evaluate_refuses_a_block_outside_the_layout(self, corrupt):
        """The kernel trusts the block: every shape, dtype, layout or
        code it could read past a buffer with is refused first."""
        model, plan, score = self._model()
        block = corrupt(self._block(plan, model._features_for(score)))
        for backend in (None, "numpy"):
            with pytest.raises(TreeCompileError):
                plan.evaluate(block, backend=backend)

    def test_a_pickled_plan_binds_again(self):
        """The native binding holds process addresses, so a pickled plan
        leaves it behind and evaluates identically after loading."""
        import pickle

        model, plan, score = self._model()
        features = model._features_for(score)
        expected = plan.evaluate(features)
        restored = pickle.loads(pickle.dumps(plan))
        got = restored.evaluate(features)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
