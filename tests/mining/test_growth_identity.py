"""The presorted block scan grows exactly the reference trees.

``tree_reference.py`` keeps the per-feature implementation (a fresh
stable argsort of every numeric feature at every node, CHAID merges as
Python loops, ``scipy.stats`` p-values).  On random FeatureSets with
NaNs, heavy ties, constant columns, nominal levels with missing codes,
float targets and candidate thinning, every node of both trees must
agree, floats compared bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.mining.features import FeatureSet
from repro.mining.tree import TreeConfig, grow_tree, iter_nodes
from repro.mining.tree.splitting import (
    _ordered_sum,
    best_categorical_split_chi2,
    best_categorical_split_f,
    best_nominal_splits,
    best_numeric_split_chi2,
    best_numeric_split_f,
)
from tests.mining import tree_reference as reference


def _hex(value):
    return None if value is None else float(value).hex()


def _split_key(split):
    if split is None:
        return None
    return (
        split.feature,
        split.is_numeric,
        _hex(split.statistic),
        _hex(split.p_value),
        split.n_candidates,
        _hex(split.threshold),
        split.groups,
        split.has_missing_branch,
    )


def _node_key(node):
    return (
        node.node_id,
        node.depth,
        node.n_samples,
        _hex(node.prediction),
        _split_key(node.split),
        [(b.kind, _hex(b.threshold), b.codes) for b in node.branches],
    )


def _assert_same_tree(ours, ref):
    assert [_node_key(n) for n in iter_nodes(ours.root)] == [
        _node_key(n) for n in iter_nodes(ref.root)
    ]
    assert (ours.n_leaves, ours.n_nodes, ours.depth) == (
        ref.n_leaves, ref.n_nodes, ref.depth
    )


def _numeric_column(gen, n):
    kind = int(gen.integers(0, 4))
    if kind == 0:  # continuous
        x = gen.normal(0, 1, n)
    elif kind == 1:  # heavy ties
        x = gen.integers(0, int(gen.integers(2, 6)), n).astype(float)
    elif kind == 2:  # constant
        x = np.full(n, float(gen.integers(-2, 3)))
    else:  # one decimal: ties and -0.0
        x = np.round(gen.normal(0, 1, n), 1)
    x[gen.random(n) < gen.choice([0.0, 0.05, 0.3, 0.9])] = np.nan
    return x


def _nominal_codes(gen, n):
    # Up to 12 levels, so that merge groups and level totals reach the 8
    # terms from which numpy sums pairwise.
    n_levels = int(gen.integers(1, 13))
    codes = gen.integers(0, n_levels, n)
    codes[gen.random(n) < gen.choice([0.0, 0.1, 0.4])] = -1
    return codes, n_levels


def _level_effects(gen, n_levels):
    """Effects per level (the last for missing codes).  The three-valued
    kind makes pure levels and equal rates, so CHAID merge steps see
    tied p-values."""
    if gen.random() < 0.5:
        return gen.choice([-9.0, 0.0, 9.0], n_levels + 1)
    return gen.normal(0, 1, n_levels + 1)


def _random_case(seed, n, n_numeric, n_nominal, mode):
    gen = np.random.default_rng(seed)
    columns = []
    signal = np.zeros(n)
    for k in range(n_numeric):
        x = _numeric_column(gen, n)
        signal += gen.normal() * np.nan_to_num(x, nan=gen.normal())
        columns.append(NumericColumn.from_array(f"x{k}", x))
    for k in range(n_nominal):
        codes, n_levels = _nominal_codes(gen, n)
        signal += _level_effects(gen, n_levels)[codes]
        labels = [f"l{i}" for i in range(n_levels)]
        columns.append(CategoricalColumn.from_codes(f"c{k}", codes, labels))
    score = signal + gen.normal(0, 1, n)
    if mode == "chi2":
        y = (score > np.quantile(score, gen.uniform(0.05, 0.95))).astype(
            np.int64
        )
        y[:2] = (0, 1)
    else:
        kind = int(gen.integers(0, 3))
        if kind == 0:  # floats on a wide scale, some far from zero
            y = (score + gen.choice([0.0, 50.0])) * 10.0 ** gen.uniform(-3, 4)
        elif kind == 1:  # counts
            y = np.round(np.exp(score / 2))
        else:  # heavy ties
            y = np.round(score).clip(-1, 2)
    columns.append(NumericColumn.from_array("t", y.astype(float)))
    return FeatureSet(DataTable(columns), "t"), y


@st.composite
def _cases(draw):
    n_numeric = draw(st.integers(0, 4))
    min_leaf = draw(st.integers(1, 15))
    config = TreeConfig(
        alpha=draw(st.sampled_from([0.05, 0.5, 1.0])),
        max_depth=draw(st.integers(1, 8)),
        max_leaves=draw(st.integers(2, 40)),
        min_leaf=min_leaf,
        min_split=2 * min_leaf + draw(st.integers(0, 20)),
        max_candidates=draw(st.sampled_from([1, 2, 3, 7, 64])),
        merge_alpha=draw(st.sampled_from([0.01, 0.1, 0.6])),
        bonferroni=draw(st.booleans()),
    )
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(40, 400)),
        n_numeric=n_numeric,
        n_nominal=draw(st.integers(0 if n_numeric else 1, 3)),
        mode=draw(st.sampled_from(["chi2", "f"])),
        config=config,
    )


def _check_trees(case):
    features, y = _random_case(
        case["seed"], case["n"], case["n_numeric"], case["n_nominal"],
        case["mode"],
    )
    ours = grow_tree(features, y, case["config"], case["mode"])
    ref = reference.grow_tree(features, y, case["config"], case["mode"])
    _assert_same_tree(ours, ref)


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_trees_match_reference(case):
    _check_trees(case)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(case=_cases())
def test_trees_match_reference_sweep(case):
    _check_trees(case)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    min_leaf=st.integers(1, 30),
    max_candidates=st.sampled_from([1, 2, 5, 64]),
    merge_alpha=st.sampled_from([0.01, 0.1, 0.6]),
    bonferroni=st.booleans(),
)
def test_split_functions_match_reference(
    seed, n, min_leaf, max_candidates, merge_alpha, bonferroni
):
    """The exported per-feature functions, including the thin numeric
    wrappers over the block scan, agree with the reference on one
    column."""
    gen = np.random.default_rng(seed)
    x = _numeric_column(gen, n)
    codes, n_levels = _nominal_codes(gen, n)
    effects = _level_effects(gen, n_levels)[codes]
    labels = (effects + gen.normal(0, 1, n) > 0).astype(np.int64)
    target = np.round(
        (effects + gen.normal(0, 1, n)) * 10.0 ** gen.uniform(-2, 3), 3
    )
    for ours, ref, values, y in (
        (best_numeric_split_chi2, reference.best_numeric_split_chi2, x, labels),
        (best_numeric_split_f, reference.best_numeric_split_f, x, target),
    ):
        assert _split_key(
            ours("x", values, y, min_leaf, max_candidates, bonferroni)
        ) == _split_key(ref("x", values, y, min_leaf, max_candidates, bonferroni))
    for ours, ref, y in (
        (best_categorical_split_chi2, reference.best_categorical_split_chi2, labels),
        (best_categorical_split_f, reference.best_categorical_split_f, target),
    ):
        args = ("c", codes, n_levels, y, min_leaf, merge_alpha, bonferroni)
        assert _split_key(ours(*args)) == _split_key(ref(*args))


def test_f_split_squares_the_total_like_the_reference():
    """(Σy)² is libm ``pow`` in the reference, which differs from
    ``x*x`` in the last bit for this target's total, and with a mean far
    from zero that bit reaches the F statistic."""
    y = 50.0 + np.random.default_rng(385).normal(0, 1, 60)
    x = np.arange(60.0)
    total = float(np.cumsum(y)[-1])
    assert total**2 != total * total
    ours = best_numeric_split_f("x", x, y, 10)
    ref = reference.best_numeric_split_f("x", x, y, 10)
    assert _split_key(ours) == _split_key(ref)


def test_nominal_f_split_squares_group_sums_like_the_reference():
    """Levels 0 and 2 merge, and their sum squares to different last bits
    under ``x*x`` (numpy's ``**2``) and libm ``pow``.  The node's F must
    square it as the reference does."""
    codes = np.array([0, 1, 2, 0, 1, 2])
    y = np.array([5.91, 5.35, 5.7, 5.48, 2.57, 9.13])
    merged = float(np.bincount(codes, weights=y)[[0, 2]].sum())
    assert merged * merged != merged**2
    args = ("c", codes, 3, y, 1, 0.01, True)
    ours = best_categorical_split_f(*args)
    assert ours.groups == ((0, 2), (1,))
    assert _split_key(ours) == _split_key(reference.best_categorical_split_f(*args))


def test_merged_groups_are_summed_again_in_list_order():
    """Rule 5.  With a constant target every pair's F is 0 up to rounding,
    so rounding picks the merges.  Adding up two groups' sums, instead of
    summing the merged group's levels again in list order, ends in other
    groups here."""
    codes = np.arange(8)
    y = np.full(8, 0.1)
    args = ("c", codes, 8, y, 1, 0.1, True)
    ours = best_categorical_split_f(*args)
    assert ours.groups == ((0, 1, 2, 3, 4, 5), (6, 7))
    assert _split_key(ours) == _split_key(reference.best_categorical_split_f(*args))


def test_merge_ties_take_the_first_pair():
    """Three levels with equal rates and equal means: every pair ties at
    p = 1, and the merge takes the first pair in (i, j) order."""
    codes = np.repeat([0, 1, 2], 10)
    labels = np.tile([0, 1], 15)
    target = np.tile(np.arange(10.0), 3)
    for ours, ref, y in (
        (best_categorical_split_chi2, reference.best_categorical_split_chi2, labels),
        (best_categorical_split_f, reference.best_categorical_split_f, target),
    ):
        args = ("c", codes, 3, y, 5, 0.1, True)
        assert ours(*args).groups == ((0, 1), (2,))
        assert _split_key(ours(*args)) == _split_key(ref(*args))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    n_features=st.integers(1, 5),
    min_leaf=st.integers(1, 30),
    merge_alpha=st.sampled_from([0.01, 0.1, 0.6, 1.0]),
    bonferroni=st.booleans(),
)
def test_nominal_block_matches_reference_per_feature(
    seed, n, n_features, min_leaf, merge_alpha, bonferroni
):
    """One block call over F nominal features gives each feature the
    reference's split of that feature alone."""
    gen = np.random.default_rng(seed)
    columns = [_nominal_codes(gen, n) for _ in range(n_features)]
    signal = sum(_level_effects(gen, k)[codes] for codes, k in columns)
    labels = (signal + gen.normal(0, 1, n) > 0).astype(np.int64)
    target = (signal + gen.normal(0, 1, n) + gen.choice([0.0, 50.0])) * (
        10.0 ** gen.uniform(-2, 3)
    )
    codes = np.array([c for c, _k in columns])
    n_levels = [k for _c, k in columns]
    names = [f"c{f}" for f in range(n_features)]
    for mode, ref, y in (
        ("chi2", reference.best_categorical_split_chi2, labels),
        ("f", reference.best_categorical_split_f, target),
    ):
        ours = best_nominal_splits(
            names, codes, n_levels, y, mode, min_leaf, merge_alpha, bonferroni
        )
        assert [_split_key(split) for split in ours] == [
            _split_key(
                ref(name, c, k, y, min_leaf, merge_alpha, bonferroni)
            )
            for name, (c, k) in zip(names, columns)
        ]


@pytest.mark.parametrize("length", range(1, 13))
def test_ordered_sum_is_ndarray_sum(length):
    """``_ordered_sum`` is ``ndarray.sum()`` bit for bit.  Below 8 terms
    that sum is a left-to-right fold from 0.0, which ``_ordered_sum``
    does in Python floats; from 8 terms on numpy sums pairwise, and the
    fold differs."""
    gen = np.random.default_rng(length)
    fold_differs = False
    for _ in range(2000):
        values = gen.normal(0, 1, length) * 10.0 ** gen.uniform(-6, 6, length)
        folded = 0.0
        for value in values.tolist():
            folded += value
        assert _ordered_sum(values.tolist()).hex() == float(values.sum()).hex()
        if length < 8:
            assert folded.hex() == float(values.sum()).hex()
        fold_differs |= folded != values.sum()
    assert fold_differs == (length >= 8)
