"""Split-search statistics for the tree family.

The paper's two production tree configurations are:

* decision trees "using the chi-square test on a Boolean target", and
* regression trees "using the f-test on a target configured as
  interval".

Both tests are implemented here as vectorised scans:

* numeric attributes: every boundary between adjacent distinct sorted
  values is a candidate binary split (capped by quantile thinning);
  the test statistic is computed for all candidates at once from
  cumulative sums.  :func:`best_numeric_splits` scans all numeric
  features of a node as one block of pre-sorted values, so tree growth
  sorts each feature once per tree rather than once per node;
* nominal attributes: levels start as their own branches and CHAID-style
  greedy merging joins the most similar pair while the pairwise test is
  insignificant.  :func:`best_nominal_splits` counts the levels of all
  nominal features of a node in one bincount and merges each feature's
  few groups in Python floats, with one p-value call per merge step;
* missing values are "valid data" (paper, Section 3): rows with a
  missing attribute form their own branch when numerous enough,
  otherwise they are excluded from the test and routed to the largest
  child at prediction time.

Reported p-values are Bonferroni-adjusted by the number of candidate
thresholds examined, the classical CHAID multiplicity correction.  They
come from ``scipy.special.chdtrc`` / ``fdtrc``, the functions that
``scipy.stats.chi2.sf`` / ``f.sf`` evaluate for a finite statistic
x >= 0, without the per-call argument handling of the distribution
objects.  Each function that calls them imports them itself, so that
importing this module (and scoring with a fitted tree) loads no scipy.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplitCandidate",
    "best_numeric_splits",
    "best_numeric_split_chi2",
    "best_categorical_split_chi2",
    "best_numeric_split_f",
    "best_categorical_split_f",
    "best_nominal_splits",
    "chi_square_2x2",
    "f_statistic",
]

_EPS = 1e-12


@dataclass(frozen=True)
class SplitCandidate:
    """A fully-evaluated candidate split of one node on one feature.

    Attributes
    ----------
    feature:
        Feature name.
    is_numeric:
        Numeric (threshold) or nominal (grouped levels) split.
    threshold:
        Split point for numeric features (x ≤ threshold goes left).
    groups:
        For nominal features: tuple of tuples of level codes, one inner
        tuple per branch.
    statistic:
        χ² or F value of the test over present rows.
    p_value:
        Bonferroni-adjusted p-value (capped at 1).
    n_candidates:
        How many raw candidates were examined (the adjustment factor).
    has_missing_branch:
        Whether missing rows form their own branch.
    """

    feature: str
    is_numeric: bool
    statistic: float
    p_value: float
    n_candidates: int
    threshold: float | None = None
    groups: tuple[tuple[int, ...], ...] = ()
    has_missing_branch: bool = False


# ---------------------------------------------------------------------------
# elementary statistics
# ---------------------------------------------------------------------------

def chi_square_2x2(
    a: np.ndarray | float,
    b: np.ndarray | float,
    c: np.ndarray | float,
    d: np.ndarray | float,
) -> np.ndarray:
    """Pearson χ² of 2×2 tables [[a, b], [c, d]] (vectorised, no
    continuity correction — matching SAS's tree split search)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = a + b + c + d
    num = n * (a * d - b * c) ** 2
    den = (a + b) * (c + d) * (a + c) * (b + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(den > 0, num / np.maximum(den, _EPS), 0.0)
    return chi2


def chi_square_table(table: np.ndarray) -> tuple[float, float, int]:
    """Pearson χ², p-value and dof of an r×c contingency table."""
    from scipy.special import chdtrc

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
    p = float(chdtrc(dof, chi2))
    return chi2, p, dof


def _ordered_sum(values: list[float]) -> float:
    """``np.array(values).sum()``, bit for bit.

    Below 8 terms numpy's sum is a left-to-right fold from 0.0, which
    Python floats repeat exactly without a numpy call; from 8 terms on
    numpy sums pairwise, so numpy does it.
    """
    if len(values) >= 8:
        return float(np.array(values).sum())
    total = 0.0
    for value in values:
        total += value
    return total


def f_statistic(
    group_sums: Sequence[float],
    group_counts: Sequence[float],
    total_ss: float,
    total_sum: float,
    total_n: int,
) -> tuple[float, int, int]:
    """One-way ANOVA F over groups described by sums/counts.

    ``total_ss`` is Σy², ``total_sum`` is Σy over all rows.  Degrees of
    freedom are (k−1, n−k).  Computed in Python floats with the float
    operations of :func:`_anova_f`: ``x*x`` where numpy squares, libm
    ``pow`` in :func:`_grand_mean_ss`, and the groups' terms summed as
    ``ndarray.sum()`` sums them.
    """
    k = len(group_sums)
    df1 = k - 1
    df2 = max(total_n - k, 1)
    grand_mean_ss = _grand_mean_ss(total_sum, total_n)
    terms = [
        s * s / max(n, _EPS) if n > 0 else 0.0
        for s, n in zip(group_sums, group_counts)
    ]
    between = _ordered_sum(terms) - grand_mean_ss
    within = max(total_ss - grand_mean_ss - between, 0.0)
    f = (between / max(df1, 1)) / max(within / df2, _EPS)
    return max(f, 0.0), df1, df2


def _grand_mean_ss(total_sum: float, total_n: int) -> float:
    """(Σy)²/n in Python floats.  ``**`` on a float is libm ``pow``,
    which can differ from numpy's ``x*x`` in the last bit, and the
    golden trees were grown with ``pow``."""
    return float(total_sum) ** 2 / max(int(total_n), 1)


def _anova_f(
    group_sums: np.ndarray,
    group_counts: np.ndarray,
    total_ss: float | np.ndarray,
    grand_mean_ss: float | np.ndarray,
    df1: int,
    df2: int | np.ndarray,
) -> np.ndarray:
    """F from per-group sums and counts (groups on the last axis).

    The totals and ``df2`` may be arrays over the leading candidate
    axis; each candidate then gets exactly the arithmetic of
    :func:`f_statistic` on that candidate alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (
            np.where(group_counts > 0, group_sums**2 / np.maximum(group_counts, _EPS), 0.0)
        ).sum(axis=-1) - grand_mean_ss
    sst = total_ss - grand_mean_ss
    within = np.maximum(sst - between, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (between / max(df1, 1)) / np.maximum(within / df2, _EPS)
    return np.maximum(f, 0.0)


def _bonferroni(p: float, n_candidates: int) -> float:
    return float(min(1.0, p * max(n_candidates, 1)))


# ---------------------------------------------------------------------------
# numeric splits
# ---------------------------------------------------------------------------

def best_numeric_splits(
    names: list[str],
    values: np.ndarray,
    target: np.ndarray,
    mode: str,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> list[SplitCandidate | None]:
    """Best binary split of each of F numeric features of one node.

    ``values`` is an F×m block: row f holds feature f's values over the
    node's m rows in stable ascending order, NaN last (what
    ``np.argsort(kind="stable")`` gives), and ``target`` holds the
    target (0/1 for ``mode="chi2"``, interval for ``"f"``) in the same
    order.  Splits fall between adjacent distinct present values, with
    at least ``min_leaf`` present rows on each side; a feature with more
    such boundaries keeps ``max_candidates`` evenly spaced ones.  Each
    feature gets its highest-statistic candidate (the first on ties), or
    None when it has no admissible boundary.
    """
    from scipy.special import chdtrc, fdtrc

    n_features, m = values.shape
    splits: list[SplitCandidate | None] = [None] * n_features
    n_present = m - np.isnan(values).sum(axis=1)
    gap = np.arange(m - 1)
    # NaN - x is NaN and never > 0, so no boundary touches a missing row.
    admissible = (
        (np.diff(values, axis=1) > 0)
        & (gap >= min_leaf - 1)
        & (gap <= (n_present - min_leaf - 1)[:, None])
    )
    # Rows with more boundaries keep the picks of
    # np.linspace(0, count - 1, max_candidates).astype(int); linspace
    # over an array of stops does each row's scalar arithmetic.
    count = admissible.sum(axis=1)
    thin = np.flatnonzero(count > max_candidates)
    if thin.size:
        picks = np.linspace(0, count[thin] - 1, max_candidates, axis=1).astype(np.int64)
        block = admissible[thin]
        boundaries = np.flatnonzero(block)
        first = np.cumsum(count[thin]) - count[thin]
        keep = np.zeros(block.size, dtype=bool)
        keep[boundaries[first[:, None] + picks]] = True
        admissible[thin] = keep.reshape(block.shape)
    rows, positions = np.nonzero(admissible)
    if rows.size == 0:
        return splits

    cum = np.cumsum(target, axis=1)
    totals = cum[np.arange(n_features), np.maximum(n_present - 1, 0)]
    total_n = n_present[rows]
    left_n = positions + 1
    left = cum[rows, positions]
    if mode == "chi2":
        right_pos = totals.astype(np.int64)[rows] - left
        statistic = chi_square_2x2(
            left, left_n - left, right_pos, (total_n - left_n) - right_pos
        )
    else:
        total_sum = totals.astype(np.float64)
        total_ss = np.zeros(n_features)
        grand_mean_ss = np.zeros(n_features)
        for row in np.unique(rows):
            n = int(n_present[row])
            # A 1-D sum over the present prefix: numpy's pairwise
            # summation depends on the length summed.
            total_ss[row] = float((target[row, :n] ** 2).sum())
            grand_mean_ss[row] = _grand_mean_ss(total_sum[row], n)
        left_n_f = left_n.astype(np.float64)
        df2 = np.maximum(n_present - 2, 1)
        statistic = _anova_f(
            np.stack([left, total_sum[rows] - left], axis=-1),
            np.stack([left_n_f, total_n - left_n_f], axis=-1),
            total_ss[rows],
            grand_mean_ss[rows],
            1,
            df2[rows],
        )

    # Each feature's first maximum, as np.argmax takes it over that
    # feature's candidates alone.
    n_candidates = np.bincount(rows, minlength=n_features)
    start = np.cumsum(n_candidates) - n_candidates
    padded = np.full((n_features, int(n_candidates.max())), -np.inf)
    padded[rows, np.arange(rows.size) - start[rows]] = statistic
    chosen = np.flatnonzero(n_candidates)
    best = start[chosen] + np.argmax(padded[chosen], axis=1)
    best_statistic = statistic[best]
    if mode == "chi2":
        raw_p = chdtrc(1, best_statistic)
    else:
        raw_p = fdtrc(1, df2[chosen], best_statistic)
    at = positions[best]
    thresholds = (values[chosen, at] + values[chosen, at + 1]) / 2.0
    for k, row in enumerate(chosen):
        count = int(n_candidates[row])
        p = float(raw_p[k])
        splits[row] = SplitCandidate(
            feature=names[row],
            is_numeric=True,
            statistic=float(best_statistic[k]),
            p_value=_bonferroni(p, count) if bonferroni else p,
            n_candidates=count,
            threshold=float(thresholds[k]),
            has_missing_branch=m - int(n_present[row]) >= min_leaf,
        )
    return splits


def _best_numeric_split(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    mode: str,
    min_leaf: int,
    max_candidates: int,
    bonferroni: bool,
) -> SplitCandidate | None:
    order = np.argsort(values, kind="stable")
    return best_numeric_splits(
        [feature_name], values[order][None, :], y[order][None, :], mode,
        min_leaf, max_candidates, bonferroni,
    )[0]


def best_numeric_split_chi2(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """Best binary χ² split of a numeric feature on a 0/1 target."""
    return _best_numeric_split(
        feature_name, values, y, "chi2", min_leaf, max_candidates, bonferroni
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
    return _best_numeric_split(
        feature_name, values, y, "f", min_leaf, max_candidates, bonferroni
    )


# ---------------------------------------------------------------------------
# nominal splits with CHAID-style level merging
# ---------------------------------------------------------------------------

def _chi2_2x2(a: float, b: float, c: float, d: float) -> float:
    """:func:`chi_square_2x2` of one table of counts, in the same float
    operations (a positive ``den`` of counts is at least 1)."""
    den = (a + b) * (c + d) * (a + c) * (b + d)
    if den > 0:
        diff = a * d - b * c
        return (a + b + c + d) * (diff * diff) / den
    return 0.0


def _chi2_of_groups(pos: list[float], neg: list[float]) -> tuple[float, int]:
    """χ² and dof of :func:`chi_square_table` over a groups × (pos, neg)
    table, in the same float operations.  Counts, their totals and the
    products ``row * col`` are exact integers."""
    cols = (sum(pos), sum(neg))
    total = cols[0] + cols[1]
    terms = []
    for row in zip(pos, neg):
        row_total = row[0] + row[1]
        for count, col in zip(row, cols):
            expected = row_total * col / total
            if expected > 0:
                diff = count - expected
                terms.append(diff * diff / expected)
    dof = (sum(1 for p, n in zip(pos, neg) if p + n > 0) - 1) * (
        sum(1 for col in cols if col > 0) - 1
    )
    return _ordered_sum(terms), max(1, dof)


def _merge_chi2(
    groups: list[list[int]],
    pos: list[float],
    neg: list[float],
    merge_alpha: float,
) -> list[list[int]]:
    """Greedily merge the most similar pair of groups while insignificant.

    Each step scores every pair (i < j) and merges the first pair, in
    (i, j) order, with the highest p-value.  ``pos`` and ``neg`` hold the
    groups' counts, which add up exactly when groups merge.
    """
    from scipy.special import chdtrc

    while len(groups) > 2:
        pairs = list(itertools.combinations(range(len(groups)), 2))
        p = chdtrc(1, [_chi2_2x2(pos[i], neg[i], pos[j], neg[j]) for i, j in pairs])
        best = int(np.argmax(p))
        if p[best] < merge_alpha:
            break
        i, j = pairs[best]
        groups[i] = groups[i] + groups[j]
        pos[i] += pos[j]
        neg[i] += neg[j]
        del groups[j], pos[j], neg[j]
    return groups


def _merge_f(
    groups: list[list[int]],
    level_sums: list[float],
    level_sqsums: list[float],
    counts: list[float],
    merge_alpha: float,
) -> list[list[int]]:
    """Greedy merge of level groups with the least-significant mean gap.

    Each step scores every pair (i < j) and merges the first pair, in
    (i, j) order, with the highest p-value.  ``counts`` holds the
    groups' row counts, which add up exactly; a merged group's sums are
    summed again over its levels in list order, because float addition
    is not associative and adding the two groups' sums could differ.
    """
    from scipy.special import fdtrc

    sums = [level_sums[g[0]] for g in groups]
    sqsums = [level_sqsums[g[0]] for g in groups]
    while len(groups) > 2:
        pairs = list(itertools.combinations(range(len(groups)), 2))
        statistics = []
        df2 = []
        for i, j in pairs:
            n = int(counts[i] + counts[j])
            f, _df1, dfd = f_statistic(
                [sums[i], sums[j]], [counts[i], counts[j]],
                sqsums[i] + sqsums[j], sums[i] + sums[j], n,
            )
            statistics.append(f)
            df2.append(dfd)
        p = fdtrc(1, df2, statistics)
        best = int(np.argmax(p))
        if p[best] < merge_alpha:
            break
        i, j = pairs[best]
        groups[i] = groups[i] + groups[j]
        sums[i] = _ordered_sum([level_sums[level] for level in groups[i]])
        sqsums[i] = _ordered_sum([level_sqsums[level] for level in groups[i]])
        counts[i] += counts[j]
        del groups[j], sums[j], sqsums[j], counts[j]
    return groups


def _fold_small_groups(
    groups: list[list[int]], sizes: list[int], min_leaf: int
) -> list[list[int]] | None:
    """Fold groups below ``min_leaf`` rows into the largest group (first
    smallest into first largest); None unless two or more groups of
    ``min_leaf`` rows remain."""
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = sizes.index(min(sizes))
        large = sizes.index(max(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        sizes[large] += sizes[small]
        del groups[small], sizes[small]
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    return groups


def best_nominal_splits(
    names: list[str],
    codes: np.ndarray,
    n_levels: list[int],
    target: np.ndarray,
    mode: str,
    min_leaf: int,
    merge_alpha: float = 0.10,
    bonferroni: bool = True,
) -> list[SplitCandidate | None]:
    """Best CHAID split of each of F nominal features of one node.

    ``codes`` is an F×m block: row f holds feature f's level codes in
    ``range(n_levels[f])`` (−1 for missing) over the node's m rows, and
    ``target`` holds the target (0/1 for ``mode="chi2"``, interval for
    ``"f"``) over the same rows.  Observed levels start as their own
    branches; the most similar pair of groups merges while its pairwise
    test has p ≥ ``merge_alpha``, then groups below ``min_leaf`` rows
    fold into the largest.  A feature gets None when fewer than
    ``2 * min_leaf`` of its rows are present or fewer than two groups
    remain.
    """
    from scipy.special import chdtrc, fdtrc

    n_features, m = codes.shape
    splits: list[SplitCandidate | None] = [None] * n_features
    if n_features == 0:
        return splits
    width = max(max(n_levels), 1)
    present = codes >= 0
    n_present = present.sum(axis=1)
    # One bincount per statistic over (feature, level) keys.  A bin adds
    # its rows in row order, as a bincount over one feature does.
    keys = (codes + width * np.arange(n_features)[:, None])[present]
    rows = np.broadcast_to(target, codes.shape)[present]
    size = n_features * width
    if mode == "chi2":
        stats = (
            np.bincount(keys[rows == 1], minlength=size),
            np.bincount(keys[rows == 0], minlength=size),
        )
    else:
        stats = (
            np.bincount(keys, minlength=size),
            np.bincount(keys, weights=rows, minlength=size),
            np.bincount(keys, weights=rows * rows, minlength=size),
        )
    per_feature = [
        s.astype(np.float64).reshape(n_features, width).tolist() for s in stats
    ]

    scored = []
    for f in range(n_features):
        if n_present[f] < 2 * min_leaf:
            continue
        levels = n_levels[f]
        if mode == "chi2":
            pos, neg = (s[f][:levels] for s in per_feature)
            counts = [a + b for a, b in zip(pos, neg)]
        else:
            counts, sums, sqsums = (s[f][:levels] for s in per_feature)
        observed = [level for level in range(levels) if counts[level] > 0]
        if len(observed) < 2:
            continue
        singles = [[level] for level in observed]
        if mode == "chi2":
            groups = _merge_chi2(
                singles, [pos[v] for v in observed], [neg[v] for v in observed],
                merge_alpha,
            )
        else:
            groups = _merge_f(
                singles, sums, sqsums, [counts[v] for v in observed], merge_alpha
            )
        groups = _fold_small_groups(
            groups, [int(sum(counts[v] for v in g)) for g in groups], min_leaf
        )
        if groups is None:
            continue
        if mode == "chi2":
            statistic, *df = _chi2_of_groups(
                [sum(pos[v] for v in g) for g in groups],
                [sum(neg[v] for v in g) for g in groups],
            )
        else:
            statistic, *df = f_statistic(
                [_ordered_sum([sums[v] for v in g]) for g in groups],
                [sum(counts[v] for v in g) for g in groups],
                _ordered_sum(sqsums),
                _ordered_sum(sums),
                int(sum(counts)),
            )
        scored.append((f, statistic, df, groups, len(observed)))
    if not scored:
        return splits

    # One p-value call for the node: chdtrc(dof, χ²) or fdtrc(df1, df2, F).
    degrees = zip(*(s[2] for s in scored))
    raw_p = (chdtrc if mode == "chi2" else fdtrc)(*degrees, [s[1] for s in scored])
    for (f, statistic, _df, groups, n_observed), p in zip(scored, raw_p.tolist()):
        n_candidates = max(1, n_observed - 1)
        splits[f] = SplitCandidate(
            feature=names[f],
            is_numeric=False,
            statistic=statistic,
            p_value=_bonferroni(p, n_candidates) if bonferroni else p,
            n_candidates=n_candidates,
            groups=tuple(tuple(sorted(g)) for g in groups),
            has_missing_branch=m - int(n_present[f]) >= min_leaf,
        )
    return splits


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
    return best_nominal_splits(
        [feature_name], codes[None, :], [n_levels], y, "chi2", min_leaf,
        merge_alpha, bonferroni,
    )[0]


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
    return best_nominal_splits(
        [feature_name], codes[None, :], [n_levels], y, "f", min_leaf,
        merge_alpha, bonferroni,
    )[0]
