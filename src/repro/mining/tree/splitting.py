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
  insignificant;
* missing values are "valid data" (paper, Section 3): rows with a
  missing attribute form their own branch when numerous enough,
  otherwise they are excluded from the test and routed to the largest
  child at prediction time.

Reported p-values are Bonferroni-adjusted by the number of candidate
thresholds examined, the classical CHAID multiplicity correction.  They
come from ``scipy.special.chdtrc`` / ``fdtrc``, the functions that
``scipy.stats.chi2.sf`` / ``f.sf`` evaluate for a finite statistic
x >= 0, without the per-call argument handling of the distribution
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, fdtrc

__all__ = [
    "SplitCandidate",
    "best_numeric_splits",
    "best_numeric_split_chi2",
    "best_categorical_split_chi2",
    "best_numeric_split_f",
    "best_categorical_split_f",
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
    df1 = k - 1
    df2 = max(total_n - k, 1)
    f = _anova_f(
        group_sums, group_counts, total_ss, _grand_mean_ss(total_sum, total_n),
        df1, df2,
    )
    return f, df1, df2


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
    axis; each candidate then gets exactly the arithmetic of a scalar
    call.
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
    for row in np.flatnonzero(admissible.sum(axis=1) > max_candidates):
        boundaries = np.flatnonzero(admissible[row])
        picks = np.linspace(0, boundaries.size - 1, max_candidates).astype(int)
        admissible[row] = False
        admissible[row, boundaries[np.unique(picks)]] = True
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
# categorical splits with CHAID-style level merging
# ---------------------------------------------------------------------------

def _merge_groups_chi2(
    groups: list[list[int]],
    pos: np.ndarray,
    neg: np.ndarray,
    merge_alpha: float,
) -> list[list[int]]:
    """Greedily merge the most similar pair while insignificant.

    Each step tests every pair (i < j) at once and merges the first pair,
    in (i, j) order, with the highest p-value.
    """
    while len(groups) > 2:
        group_pos = np.array([pos[g].sum() for g in groups])
        group_neg = np.array([neg[g].sum() for g in groups])
        first, second = np.triu_indices(len(groups), 1)
        p = chdtrc(
            1,
            chi_square_2x2(
                group_pos[first], group_neg[first],
                group_pos[second], group_neg[second],
            ),
        )
        best = int(np.argmax(p))
        if p[best] < merge_alpha:
            break
        i, j = int(first[best]), int(second[best])
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
    """Greedy merge of level groups with the least-significant mean gap.

    Each step tests every pair (i < j) at once and merges the first pair,
    in (i, j) order, with the highest p-value.
    """
    while len(groups) > 2:
        # Per-group sums in list order: merging groups is not exact in
        # floating point, so they are recomputed rather than added up.
        group_sums = np.array([sums[g].sum() for g in groups])
        group_sqsums = np.array([sqsums[g].sum() for g in groups])
        group_counts = np.array([counts[g].sum() for g in groups])
        first, second = np.triu_indices(len(groups), 1)
        total_n = (group_counts[first] + group_counts[second]).astype(np.int64)
        total_sum = group_sums[first] + group_sums[second]
        df2 = np.maximum(total_n - 2, 1)
        f = _anova_f(
            np.stack([group_sums[first], group_sums[second]], axis=-1),
            np.stack([group_counts[first], group_counts[second]], axis=-1),
            group_sqsums[first] + group_sqsums[second],
            np.array([_grand_mean_ss(s, n) for s, n in zip(total_sum, total_n)]),
            1,
            df2,
        )
        p = fdtrc(1, df2, f)
        best = int(np.argmax(p))
        if p[best] < merge_alpha:
            break
        i, j = int(first[best]), int(second[best])
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
    raw_p = float(fdtrc(df1, df2, statistic))
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
