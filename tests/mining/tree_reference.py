"""Reference split search and tree growth for the identity tests.

This is the per-feature implementation the package used before numeric
features were presorted once per tree and scanned as one block: every
numeric feature is re-sorted at every node, each CHAID merge step scores
group pairs in a Python loop, and every p-value comes from
``scipy.stats``.  The functions are kept verbatim, so that
``test_growth_identity.py`` can require the package to grow the very
same trees, bit for bit.  Helpers that presorting did not touch
(``chi_square_2x2``, ``_bonferroni``, ``_build_branches``) are imported
from the package.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
from scipy import stats

from repro.exceptions import ConfigurationError
from repro.mining.features import FeatureSet
from repro.mining.tree.growth import GrownTree, TreeConfig, _build_branches
from repro.mining.tree.splitting import (
    SplitCandidate,
    _bonferroni,
    chi_square_2x2,
)
from repro.mining.tree.structure import TreeNode, partition_indices

_EPS = 1e-12


def chi_square_table(table: np.ndarray) -> tuple[float, float, int]:
    """Pearson χ², p-value and dof of an r×c contingency table."""
    table = np.asarray(table, dtype=np.float64)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    total = table.sum()
    if total <= 0:
        return 0.0, 1.0, 1
    expected = row @ col / total
    mask = expected > 0
    chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    dof = max(1, (np.count_nonzero(row > 0) - 1) * (np.count_nonzero(col > 0) - 1))
    p = float(stats.chi2.sf(chi2, dof))
    return chi2, p, dof


def f_statistic(
    group_sums: np.ndarray,
    group_counts: np.ndarray,
    total_ss: float,
    total_sum: float,
    total_n: int,
) -> tuple[np.ndarray, int, int]:
    """One-way ANOVA F over groups described by sums/counts.

    ``total_ss`` is Σy², ``total_sum`` is Σy over all rows.  Degrees of
    freedom are (k−1, n−k).  Vectorised over a leading axis of
    candidates when the inputs are 2-D.
    """
    group_sums = np.asarray(group_sums, dtype=np.float64)
    group_counts = np.asarray(group_counts, dtype=np.float64)
    k = group_sums.shape[-1]
    grand_mean_ss = total_sum**2 / max(total_n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (
            np.where(group_counts > 0, group_sums**2 / np.maximum(group_counts, _EPS), 0.0)
        ).sum(axis=-1) - grand_mean_ss
    sst = total_ss - grand_mean_ss
    within = np.maximum(sst - between, 0.0)
    df1 = k - 1
    df2 = max(total_n - k, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (between / max(df1, 1)) / np.maximum(within / df2, _EPS)
    return np.maximum(f, 0.0), df1, df2


def _candidate_positions(
    sorted_values: np.ndarray, min_leaf: int, max_candidates: int
) -> np.ndarray:
    """Indices i such that splitting between i and i+1 is admissible.

    Only boundaries between distinct values count, both sides must hold
    at least ``min_leaf`` rows, and the set is thinned to at most
    ``max_candidates`` evenly-spaced positions.
    """
    n = sorted_values.shape[0]
    if n < 2 * min_leaf:
        return np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
    lo, hi = min_leaf - 1, n - min_leaf - 1
    boundaries = boundaries[(boundaries >= lo) & (boundaries <= hi)]
    if boundaries.size > max_candidates:
        picks = np.linspace(0, boundaries.size - 1, max_candidates).astype(int)
        boundaries = boundaries[np.unique(picks)]
    return boundaries



# ---------------------------------------------------------------------------
# numeric splits
# ---------------------------------------------------------------------------

def best_numeric_split_chi2(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """Best binary χ² split of a numeric feature on a 0/1 target."""
    present = ~np.isnan(values)
    x = values[present]
    t = y[present]
    if x.shape[0] < 2 * min_leaf:
        return None
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    t_sorted = t[order]
    positions = _candidate_positions(x_sorted, min_leaf, max_candidates)
    if positions.size == 0:
        return None
    cum_pos = np.cumsum(t_sorted)
    total_pos = int(cum_pos[-1])
    total_n = x_sorted.shape[0]
    left_n = positions + 1
    left_pos = cum_pos[positions]
    a = left_pos                      # left positives
    b = left_n - left_pos             # left negatives
    c = total_pos - left_pos          # right positives
    d = (total_n - left_n) - c        # right negatives
    chi2 = chi_square_2x2(a, b, c, d)
    best = int(np.argmax(chi2))
    statistic = float(chi2[best])
    raw_p = float(stats.chi2.sf(statistic, 1))
    p = _bonferroni(raw_p, positions.size) if bonferroni else raw_p
    threshold = float(
        (x_sorted[positions[best]] + x_sorted[positions[best] + 1]) / 2.0
    )
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=True,
        statistic=statistic,
        p_value=p,
        n_candidates=int(positions.size),
        threshold=threshold,
        has_missing_branch=n_missing >= min_leaf,
    )


def best_numeric_split_f(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """Best binary F-test split of a numeric feature on an interval target."""
    present = ~np.isnan(values)
    x = values[present]
    t = y[present]
    if x.shape[0] < 2 * min_leaf:
        return None
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    t_sorted = t[order]
    positions = _candidate_positions(x_sorted, min_leaf, max_candidates)
    if positions.size == 0:
        return None
    cum_sum = np.cumsum(t_sorted)
    total_sum = float(cum_sum[-1])
    total_ss = float((t_sorted**2).sum())
    total_n = x_sorted.shape[0]
    left_n = (positions + 1).astype(np.float64)
    left_sum = cum_sum[positions]
    group_sums = np.stack([left_sum, total_sum - left_sum], axis=-1)
    group_counts = np.stack([left_n, total_n - left_n], axis=-1)
    f, df1, df2 = f_statistic(
        group_sums, group_counts, total_ss, total_sum, total_n
    )
    best = int(np.argmax(f))
    statistic = float(f[best])
    raw_p = float(stats.f.sf(statistic, df1, df2))
    p = _bonferroni(raw_p, positions.size) if bonferroni else raw_p
    threshold = float(
        (x_sorted[positions[best]] + x_sorted[positions[best] + 1]) / 2.0
    )
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=True,
        statistic=statistic,
        p_value=p,
        n_candidates=int(positions.size),
        threshold=threshold,
        has_missing_branch=n_missing >= min_leaf,
    )


# ---------------------------------------------------------------------------
# categorical splits with CHAID-style level merging
# ---------------------------------------------------------------------------

def _merge_groups_chi2(
    groups: list[list[int]],
    pos: np.ndarray,
    neg: np.ndarray,
    merge_alpha: float,
) -> list[list[int]]:
    """Greedily merge the most similar pair while insignificant."""
    while len(groups) > 2:
        best_pair = None
        best_p = -1.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                a = pos[groups[i]].sum()
                b = neg[groups[i]].sum()
                c = pos[groups[j]].sum()
                d = neg[groups[j]].sum()
                chi2 = float(chi_square_2x2(a, b, c, d))
                p = float(stats.chi2.sf(chi2, 1))
                if p > best_p:
                    best_p = p
                    best_pair = (i, j)
        if best_pair is None or best_p < merge_alpha:
            break
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


def best_categorical_split_chi2(
    feature_name: str,
    codes: np.ndarray,
    n_levels: int,
    y: np.ndarray,
    min_leaf: int,
    merge_alpha: float = 0.10,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """χ² split of a nominal feature: one branch per merged level group."""
    present = codes >= 0
    c = codes[present]
    t = y[present]
    if c.shape[0] < 2 * min_leaf:
        return None
    pos = np.bincount(c[t == 1], minlength=n_levels).astype(np.float64)
    neg = np.bincount(c[t == 0], minlength=n_levels).astype(np.float64)
    observed = np.flatnonzero(pos + neg > 0)
    if observed.size < 2:
        return None
    groups = _merge_groups_chi2(
        [[int(level)] for level in observed], pos, neg, merge_alpha
    )
    # Fold groups below min_leaf into the largest group.
    sizes = [int((pos[g] + neg[g]).sum()) for g in groups]
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = int(np.argmin(sizes))
        large = int(np.argmax(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        del groups[small]
        sizes = [int((pos[g] + neg[g]).sum()) for g in groups]
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    table = np.array(
        [[pos[g].sum(), neg[g].sum()] for g in groups], dtype=np.float64
    )
    chi2, raw_p, _dof = chi_square_table(table)
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=False,
        statistic=chi2,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=n_missing >= min_leaf,
    )


def _merge_groups_f(
    groups: list[list[int]],
    sums: np.ndarray,
    sqsums: np.ndarray,
    counts: np.ndarray,
    merge_alpha: float,
) -> list[list[int]]:
    """Greedy merge of level groups with the least-significant mean gap."""
    while len(groups) > 2:
        best_pair = None
        best_p = -1.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                gi, gj = groups[i], groups[j]
                n = counts[gi].sum() + counts[gj].sum()
                s = sums[gi].sum() + sums[gj].sum()
                ss = sqsums[gi].sum() + sqsums[gj].sum()
                f, df1, df2 = f_statistic(
                    np.array([sums[gi].sum(), sums[gj].sum()]),
                    np.array([counts[gi].sum(), counts[gj].sum()]),
                    float(ss),
                    float(s),
                    int(n),
                )
                p = float(stats.f.sf(float(f), df1, df2))
                if p > best_p:
                    best_p = p
                    best_pair = (i, j)
        if best_pair is None or best_p < merge_alpha:
            break
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


def best_categorical_split_f(
    feature_name: str,
    codes: np.ndarray,
    n_levels: int,
    y: np.ndarray,
    min_leaf: int,
    merge_alpha: float = 0.10,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """F-test split of a nominal feature on an interval target."""
    present = codes >= 0
    c = codes[present]
    t = y[present]
    if c.shape[0] < 2 * min_leaf:
        return None
    counts = np.bincount(c, minlength=n_levels).astype(np.float64)
    sums = np.bincount(c, weights=t, minlength=n_levels)
    sqsums = np.bincount(c, weights=t**2, minlength=n_levels)
    observed = np.flatnonzero(counts > 0)
    if observed.size < 2:
        return None
    groups = _merge_groups_f(
        [[int(level)] for level in observed], sums, sqsums, counts, merge_alpha
    )
    sizes = [int(counts[g].sum()) for g in groups]
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = int(np.argmin(sizes))
        large = int(np.argmax(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        del groups[small]
        sizes = [int(counts[g].sum()) for g in groups]
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    group_sums = np.array([sums[g].sum() for g in groups])
    group_counts = np.array([counts[g].sum() for g in groups])
    f, df1, df2 = f_statistic(
        group_sums,
        group_counts,
        float(sqsums.sum()),
        float(sums.sum()),
        int(counts.sum()),
    )
    statistic = float(f)
    raw_p = float(stats.f.sf(statistic, df1, df2))
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=False,
        statistic=statistic,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=n_missing >= min_leaf,
    )

def _best_split(
    features: FeatureSet,
    y: np.ndarray,
    idx: np.ndarray,
    config: TreeConfig,
    mode: str,
) -> SplitCandidate | None:
    """Most significant candidate over all features for rows ``idx``."""
    best: SplitCandidate | None = None
    y_sub = y[idx]
    if mode == "chi2" and (y_sub.min() == y_sub.max()):
        return None  # pure node
    for feature in features.features:
        values = feature.values[idx]
        if feature.is_numeric:
            if mode == "chi2":
                candidate = best_numeric_split_chi2(
                    feature.name, values, y_sub, config.min_leaf,
                    config.max_candidates, config.bonferroni,
                )
            else:
                candidate = best_numeric_split_f(
                    feature.name, values, y_sub, config.min_leaf,
                    config.max_candidates, config.bonferroni,
                )
        else:
            if mode == "chi2":
                candidate = best_categorical_split_chi2(
                    feature.name, values, feature.n_levels, y_sub,
                    config.min_leaf, config.merge_alpha, config.bonferroni,
                )
            else:
                candidate = best_categorical_split_f(
                    feature.name, values, feature.n_levels, y_sub,
                    config.min_leaf, config.merge_alpha, config.bonferroni,
                )
        if candidate is None:
            continue
        if best is None or (candidate.p_value, -candidate.statistic) < (
            best.p_value, -best.statistic
        ):
            best = candidate
    return best


def grow_tree(
    features: FeatureSet,
    y: np.ndarray,
    config: TreeConfig,
    mode: str,
) -> GrownTree:
    """Grow a tree on target ``y`` (0/1 for 'chi2', floats for 'f').

    Growth is best-first on (adjusted p-value, −statistic): the most
    significant available expansion anywhere in the tree is applied
    next, so a leaf budget truncates the least important structure —
    mirroring how an analyst sizes a SAS tree.
    """
    if mode not in ("chi2", "f"):
        raise ConfigurationError(f"mode must be 'chi2' or 'f', got {mode!r}")
    n = features.n_rows
    if n < config.min_split:
        root = TreeNode(0, 0, n, float(np.mean(y)) if n else 0.0)
        return GrownTree(root, n_leaves=1, n_nodes=1, depth=0)

    ids = itertools.count(0)
    root = TreeNode(next(ids), 0, n, float(np.mean(y)))
    all_idx = np.arange(n, dtype=np.int64)
    heap: list[tuple[float, float, int, TreeNode, np.ndarray, SplitCandidate]] = []
    tiebreak = itertools.count()

    def consider(node: TreeNode, idx: np.ndarray) -> None:
        if (
            idx.size < config.min_split
            or node.depth >= config.max_depth
        ):
            return
        split = _best_split(features, y, idx, config, mode)
        if split is None or split.p_value > config.alpha:
            return
        heapq.heappush(
            heap,
            (
                split.p_value,
                -split.statistic,
                next(tiebreak),
                node,
                idx,
                split,
            ),
        )

    consider(root, all_idx)
    n_leaves = 1
    n_nodes = 1
    max_depth_seen = 0
    while heap:
        _p, _s, _t, node, idx, split = heapq.heappop(heap)
        feature = next(
            f for f in features.features if f.name == split.feature
        )
        added = (
            (2 if split.is_numeric else len(split.groups))
            + (1 if split.has_missing_branch else 0)
            - 1
        )
        if n_leaves + added > config.max_leaves:
            continue  # cannot afford this expansion; try cheaper ones
        _build_branches(node, split, feature, ids)
        parts = partition_indices(node, features, idx)
        # A degenerate partition (an arm got every row) cannot stand.
        if sum(1 for _b, sub in parts if sub.size > 0) < 2:
            node.make_leaf()
            continue
        n_leaves += added
        n_nodes += added + 1
        for branch, sub in parts:
            child = branch.child
            child.n_samples = int(sub.size)
            if sub.size:
                child.prediction = float(np.mean(y[sub]))
            max_depth_seen = max(max_depth_seen, child.depth)
            consider(child, sub)

    if n_nodes == 1 and mode == "chi2" and len(np.unique(y)) > 1:
        # Not an error: the significance gate can legitimately refuse
        # every split; callers see a single-leaf majority model.
        pass
    return GrownTree(
        root=root, n_leaves=n_leaves, n_nodes=n_nodes, depth=max_depth_seen
    )
