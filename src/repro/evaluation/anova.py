"""One-way analysis of variance.

Phase 3 of the paper backs its cluster finding with an ANOVA: "the
resulting ANOVA p-value of 0 provided strong evidence to dismiss the
assumption of equality of the means".  The statistic is implemented
directly (and cross-checked against ``scipy.stats.f_oneway`` in the
test suite) so that the cluster-analysis module has no hidden model
dependencies.  The p-value is ``scipy.special.fdtrc``, the function
``scipy.stats.f.sf`` evaluates for a finite F >= 0 (DESIGN.md §15),
imported inside :func:`one_way_anova` so that importing this module,
and with it :mod:`repro`, does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import EvaluationError

__all__ = ["AnovaResult", "one_way_anova"]


@dataclass(frozen=True)
class AnovaResult:
    """F statistic, p-value and the decomposed sums of squares."""

    f_statistic: float
    p_value: float
    df_between: int
    df_within: int
    ss_between: float
    ss_within: float

    @property
    def eta_squared(self) -> float:
        """Effect size: share of variance explained by group membership."""
        total = self.ss_between + self.ss_within
        return float("nan") if total == 0 else self.ss_between / total

    def rejects_equal_means(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def one_way_anova(groups: Sequence[np.ndarray]) -> AnovaResult:
    """One-way fixed-effects ANOVA over ≥2 non-empty groups."""
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    arrays = [a[~np.isnan(a)] for a in arrays]
    arrays = [a for a in arrays if a.size > 0]
    if len(arrays) < 2:
        raise EvaluationError(
            f"ANOVA needs at least 2 non-empty groups, got {len(arrays)}"
        )
    k = len(arrays)
    n = sum(a.size for a in arrays)
    if n <= k:
        raise EvaluationError(
            f"ANOVA needs more observations ({n}) than groups ({k})"
        )
    grand_mean = float(np.concatenate(arrays).mean())
    ss_between = float(
        sum(a.size * (a.mean() - grand_mean) ** 2 for a in arrays)
    )
    ss_within = float(sum(((a - a.mean()) ** 2).sum() for a in arrays))
    df_between = k - 1
    df_within = n - k
    if all(a.min() == a.max() for a in arrays):
        # Every group is constant, decided from the values: a constant
        # group's float mean can sit an ulp off its values, leaving a
        # ~1e-33 residue in ss_within, and tiny values can underflow
        # ss_between to 0.  Separated groups give F = inf and p = 0, as
        # scipy's f_oneway does; one shared value gives F = 0, p = 1.
        ss_within = 0.0
        if any(a[0] != arrays[0][0] for a in arrays):
            f_value, p_value = float("inf"), 0.0
        else:
            ss_between = 0.0
            f_value, p_value = 0.0, 1.0
    elif ss_within == 0.0:
        # Varying groups whose squared deviations all underflow.
        if ss_between == 0.0:
            f_value, p_value = 0.0, 1.0
        else:
            f_value, p_value = float("inf"), 0.0
    else:
        from scipy.special import fdtrc

        f_value = (ss_between / df_between) / (ss_within / df_within)
        p_value = float(fdtrc(df_between, df_within, f_value))
    return AnovaResult(
        f_statistic=float(f_value),
        p_value=float(p_value),
        df_between=df_between,
        df_within=df_within,
        ss_between=ss_between,
        ss_within=ss_within,
    )
