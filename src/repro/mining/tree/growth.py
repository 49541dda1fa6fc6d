"""Significance-driven best-first tree growth.

The paper controls its trees through "a series of modeling tests ... to
determine a suitable tree size that did not significantly truncate the
tree" — i.e. a leaf budget plus the split test's significance gate.
:func:`grow_tree` implements that: candidate splits across features are
ranked by adjusted p-value, the globally most significant expansion is
applied first, and growth stops when the leaf budget, depth limit,
minimum node sizes or the significance threshold bite.

Numeric features are sorted once per tree (SLIQ's presorted attribute
lists): every pending node carries, per numeric feature, its row ids in
that feature's stable sorted order, and a child's lists are its
parent's filtered to the child's rows.  Node row ids always ascend, so
the filtered lists are exactly what a stable argsort at the child would
give, and the trees are those of re-sorting at every node.  Nominal
features' codes are stacked once per tree as well, and each node scores
all of them in one :func:`best_nominal_splits` call.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mining.features import Feature, FeatureSet
from repro.mining.tree.splitting import (
    SplitCandidate,
    best_nominal_splits,
    best_numeric_splits,
)
from repro.mining.tree.structure import Branch, TreeNode, partition_indices

__all__ = ["TreeConfig", "GrownTree", "grow_tree"]


@dataclass(frozen=True)
class TreeConfig:
    """Growth hyper-parameters shared by the tree family.

    Attributes
    ----------
    alpha:
        Maximum adjusted p-value for a split to be applied.
    max_depth / max_leaves:
        Structural budgets; ``max_leaves`` is the paper's "tree size"
        control (its models report between 6 and 160 leaves).
    min_split / min_leaf:
        Minimum rows to attempt a split / to allow in a child.
    max_candidates:
        Cap on numeric threshold candidates per feature per node.
    merge_alpha:
        CHAID level-merging significance for nominal features.
    bonferroni:
        Apply the multiplicity adjustment to split p-values.
    """

    alpha: float = 0.05
    max_depth: int = 14
    max_leaves: int = 160
    min_split: int = 60
    min_leaf: int = 25
    max_candidates: int = 64
    merge_alpha: float = 0.10
    bonferroni: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_leaf < 1 or self.min_split < 2 * self.min_leaf:
            raise ConfigurationError(
                "need min_leaf >= 1 and min_split >= 2*min_leaf "
                f"(got min_leaf={self.min_leaf}, min_split={self.min_split})"
            )
        if self.max_leaves < 2:
            raise ConfigurationError(f"max_leaves must be >= 2, got {self.max_leaves}")
        if self.max_candidates < 1:
            raise ConfigurationError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if not 0 < self.merge_alpha <= 1:
            raise ConfigurationError(
                f"merge_alpha must be in (0, 1], got {self.merge_alpha}"
            )


@dataclass
class GrownTree:
    """Result of :func:`grow_tree`."""

    root: TreeNode
    n_leaves: int
    n_nodes: int
    depth: int


def _best_split(
    features: FeatureSet,
    numeric: np.ndarray,
    nominal: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    block: np.ndarray,
    config: TreeConfig,
    mode: str,
) -> SplitCandidate | None:
    """Most significant candidate over all features for rows ``idx``.

    ``numeric`` stacks the numeric features' values and ``nominal`` the
    nominal features' codes (one row each, in feature order); ``block``
    holds, per numeric row, the node's row ids in that feature's sorted
    order.
    """
    best: SplitCandidate | None = None
    y_sub = y[idx]
    if mode == "chi2" and (y_sub.min() == y_sub.max()):
        return None  # pure node
    numeric_splits = iter(
        best_numeric_splits(
            [f.name for f in features.features if f.is_numeric],
            np.take_along_axis(numeric, block, axis=1),
            y[block],
            mode,
            config.min_leaf,
            config.max_candidates,
            config.bonferroni,
        )
    )
    nominal_features = [f for f in features.features if not f.is_numeric]
    nominal_splits = iter(
        best_nominal_splits(
            [f.name for f in nominal_features],
            nominal[:, idx],
            [f.n_levels for f in nominal_features],
            y_sub,
            mode,
            config.min_leaf,
            config.merge_alpha,
            config.bonferroni,
        )
    )
    for feature in features.features:
        candidate = next(numeric_splits if feature.is_numeric else nominal_splits)
        if candidate is None:
            continue
        if best is None or (candidate.p_value, -candidate.statistic) < (
            best.p_value, -best.statistic
        ):
            best = candidate
    return best


def _build_branches(
    node: TreeNode,
    split: SplitCandidate,
    feature: Feature,
    next_id: "itertools.count[int]",
) -> None:
    """Attach (empty) child nodes for every arm of ``split``."""
    children: list[Branch] = []
    if split.is_numeric:
        children.append(
            Branch("le", _child(node, next_id), threshold=split.threshold)
        )
        children.append(
            Branch("gt", _child(node, next_id), threshold=split.threshold)
        )
    else:
        for group in split.groups:
            children.append(
                Branch("in", _child(node, next_id), codes=frozenset(group))
            )
    if split.has_missing_branch:
        children.append(Branch("missing", _child(node, next_id)))
    node.split = split
    node.branches = children


def _child(parent: TreeNode, next_id: "itertools.count[int]") -> TreeNode:
    return TreeNode(
        node_id=next(next_id),
        depth=parent.depth + 1,
        n_samples=0,
        prediction=parent.prediction,
    )


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
    numeric_features = [f for f in features.features if f.is_numeric]
    numeric = np.array(
        [f.values for f in numeric_features], dtype=np.float64
    ).reshape(len(numeric_features), n)
    nominal_features = [f for f in features.features if not f.is_numeric]
    nominal = np.array(
        [f.values for f in nominal_features], dtype=np.int64
    ).reshape(len(nominal_features), n)
    heap: list[
        tuple[float, float, int, TreeNode, np.ndarray, np.ndarray, SplitCandidate]
    ] = []
    tiebreak = itertools.count()
    owner = np.empty(n, dtype=np.int64)

    def consider(node: TreeNode, idx: np.ndarray, block: np.ndarray) -> None:
        if (
            idx.size < config.min_split
            or node.depth >= config.max_depth
        ):
            return
        split = _best_split(features, numeric, nominal, y, idx, block, config, mode)
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
                block,
                split,
            ),
        )

    # The one sort per tree: NaN last, ties in row order.
    consider(
        root,
        np.arange(n, dtype=np.int64),
        np.argsort(numeric, axis=1, kind="stable"),
    )
    n_leaves = 1
    n_nodes = 1
    max_depth_seen = 0
    while heap:
        _p, _s, _t, node, idx, block, split = heapq.heappop(heap)
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
        for b, (_branch, sub) in enumerate(parts):
            owner[sub] = b
        owners = owner[block]
        for b, (branch, sub) in enumerate(parts):
            child = branch.child
            child.n_samples = int(sub.size)
            if sub.size:
                child.prediction = float(np.mean(y[sub]))
            max_depth_seen = max(max_depth_seen, child.depth)
            # Filtering keeps each row's sorted order: the child's block.
            consider(child, sub, block[owners == b].reshape(len(block), sub.size))

    return GrownTree(
        root=root, n_leaves=n_leaves, n_nodes=n_nodes, depth=max_depth_seen
    )
