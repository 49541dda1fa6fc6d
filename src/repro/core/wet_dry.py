"""Wet/dry crash analysis (the study's stage-1 findings).

The paper builds on its preliminary stage [Emerson et al., WCEAM 2010]:
"Attributes such as skid resistance and texture depth were found to
have strong relationship with roads having crashes, and wet & dry roads
were found to have differing distributions of crash with respect to
skid resistance and traffic rates."

This module reproduces that stage on the synthetic crash instances:
distribution comparison of skid resistance (F60) between wet and dry
crashes, the wet-crash share across F60 bands, and the supporting
statistical tests (two-sample KS, χ² on the banded contingency table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatable import DataTable
from repro.exceptions import EvaluationError
from repro.mining.tree.splitting import chi_square_table

__all__ = ["WetDryResult", "wet_dry_analysis"]


@dataclass(frozen=True)
class WetDryResult:
    """Outcome of the wet/dry differentiation analysis."""

    n_wet: int
    n_dry: int
    wet_mean_f60: float
    dry_mean_f60: float
    ks_statistic: float
    ks_p_value: float
    band_edges: tuple[float, ...]
    wet_share_by_band: tuple[float, ...]
    chi2_statistic: float
    chi2_p_value: float

    @property
    def wet_share(self) -> float:
        return self.n_wet / max(self.n_wet + self.n_dry, 1)

    def distributions_differ(self, alpha: float = 0.01) -> bool:
        """The stage-1 finding: wet and dry crashes sit on roads with
        different friction distributions."""
        return self.ks_p_value < alpha and self.chi2_p_value < alpha

    def describe(self) -> str:
        lines = [
            f"wet crashes: {self.n_wet} ({100 * self.wet_share:.1f}%), "
            f"dry: {self.n_dry}",
            f"mean F60 at wet crashes {self.wet_mean_f60:.3f} vs dry "
            f"{self.dry_mean_f60:.3f}",
            f"KS test: D={self.ks_statistic:.3f}, p={self.ks_p_value:.3g}",
            f"banded chi-square: X2={self.chi2_statistic:.1f}, "
            f"p={self.chi2_p_value:.3g}",
            "wet share by F60 band (low -> high friction):",
        ]
        for low, high, share in zip(
            self.band_edges[:-1], self.band_edges[1:], self.wet_share_by_band
        ):
            lines.append(f"  F60 {low:.2f}-{high:.2f}: {100 * share:.1f}% wet")
        return "\n".join(lines)


def wet_dry_analysis(
    crash_instances: DataTable,
    f60_column: str = "skid_resistance_f60",
    condition_column: str = "surface_condition",
    n_bands: int = 5,
) -> WetDryResult:
    """Compare wet vs dry crashes with respect to skid resistance.

    ``crash_instances`` is one row per crash with the segment's F60 and
    the crash's surface condition ('wet' / 'dry').
    """
    from scipy import stats

    condition = crash_instances.categorical(condition_column)
    if "wet" not in condition.labels or "dry" not in condition.labels:
        raise EvaluationError(
            f"{condition_column!r} must have 'wet' and 'dry' levels"
        )
    f60 = crash_instances.numeric(f60_column)
    wet_mask = condition.codes == condition.labels.index("wet")
    dry_mask = condition.codes == condition.labels.index("dry")
    present = ~np.isnan(f60)
    wet_f60 = f60[wet_mask & present]
    dry_f60 = f60[dry_mask & present]
    if wet_f60.size < 5 or dry_f60.size < 5:
        raise EvaluationError(
            "need at least 5 wet and 5 dry crashes with F60 readings"
        )
    ks = stats.ks_2samp(wet_f60, dry_f60)

    # Band F60 by equal-frequency edges over all crashes.
    all_f60 = f60[present]
    edges = np.quantile(all_f60, np.linspace(0, 1, n_bands + 1))
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    bands = np.clip(
        np.searchsorted(edges, all_f60, side="right") - 1, 0, n_bands - 1
    )
    wet_flags = wet_mask[present]
    contingency = np.zeros((n_bands, 2))
    for band in range(n_bands):
        in_band = bands == band
        contingency[band, 0] = (wet_flags & in_band).sum()
        contingency[band, 1] = (~wet_flags & in_band).sum()
    chi2, chi2_p, _dof = chi_square_table(contingency)
    band_totals = contingency.sum(axis=1)
    wet_share_by_band = tuple(
        float(contingency[band, 0] / band_totals[band])
        if band_totals[band]
        else float("nan")
        for band in range(n_bands)
    )
    return WetDryResult(
        n_wet=int(wet_mask.sum()),
        n_dry=int(dry_mask.sum()),
        wet_mean_f60=float(wet_f60.mean()),
        dry_mean_f60=float(dry_f60.mean()),
        ks_statistic=float(ks.statistic),
        ks_p_value=float(ks.pvalue),
        band_edges=tuple(float(e) for e in edges),
        wet_share_by_band=wet_share_by_band,
        chi2_statistic=chi2,
        chi2_p_value=chi2_p,
    )
