"""Zero-altered crash counting process.

Shankar, Milton & Mannering's zero-altered probability framework — the
paper's stated inspiration — treats a road segment's crash count as a
two-regime process: a *hurdle* decides whether the segment generates
structural (road-caused) crashes at all, and a count distribution then
produces how many.  On top of that, every trafficked segment collects a
small number of *background* crashes (driver behaviour, weather, ...)
that are nearly independent of road condition.

That decomposition is precisely what makes the paper's finding come out:

* Segments whose only crashes are background crashes have *good* road
  attributes — they look like no-crash roads, so low crash-count roads
  cluster with non-crash-prone roads.
* Segments past the hurdle have attribute-driven counts — they are what
  the trees can actually separate — so model efficiency rises as the
  threshold moves the background-dominated segments into the negative
  class, and falls again once the positive class starves.

Counts are distributed over the four study years (2004–2007) with a
near-uniform multinomial, matching Figure 1's year-on-year stability,
and each crash is given wet/dry and severity attributes whose rates
depend on skid resistance (as the authors' prior wet/dry study found).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.roads.segments import GeneratedSegments

__all__ = ["CrashProcessParams", "CrashOutcome", "CrashProcess", "STUDY_YEARS"]

STUDY_YEARS = (2004, 2005, 2006, 2007)


@dataclass(frozen=True)
class CrashProcessParams:
    """Parameters of the zero-altered crash process.

    The defaults were produced by :mod:`repro.roads.calibration`
    against the class marginals of Table 1 of the paper (see
    EXPERIMENTS.md); they give, at the paper's scale of ~20k segments,
    roughly 16.7k crashes on ~4k segments with ~16k crash-free segments.

    Attributes
    ----------
    w_deficiency, w_exposure, w_curvature, w_intersections:
        Weights of the structural propensity score ``z``.
    z_noise_sd:
        Unobserved heterogeneity; bounds achievable model accuracy.
    hurdle_intercept, hurdle_slope:
        Logistic hurdle P(structural regime | z).
    count_log_mean, count_z_gain:
        Structural count mean  μ = exp(count_log_mean + count_z_gain·z).
    count_offset:
        Minimum crash count of a segment in the structural regime
        (counts below it only arise from background crashes, which is
        what makes low-count roads resemble no-crash roads).
    count_dispersion:
        Negative-binomial shape (gamma-Poisson mixing); smaller = heavier
        tail.  The tail produces the paper's >64-crash segments.
    background_rate:
        Base background crashes per segment over the 4-year window.
    background_exposure_gain:
        Exponent tying background crashes to traffic exposure.
    background_dispersion:
        Gamma-mixing shape of the background regime; values below ~1
        give a tail of "unlucky" good roads collecting several
        behavioural crashes, which is what blurs the CP-2 boundary.
    year_weights:
        Relative crash weight of each study year.
    """

    w_deficiency: float = 1.0
    w_exposure: float = 0.55
    w_curvature: float = 0.30
    w_intersections: float = 0.25
    z_noise_sd: float = 0.25
    hurdle_intercept: float = -6.5099
    hurdle_slope: float = 3.0
    count_log_mean: float = 1.6022
    count_z_gain: float = 0.10
    count_offset: int = 6
    count_dispersion: float = 0.5859
    background_rate: float = 0.3222
    background_exposure_gain: float = 0.30
    background_dispersion: float = 0.30
    year_weights: tuple[float, ...] = (0.26, 0.25, 0.25, 0.24)

    def with_overrides(self, **kwargs) -> "CrashProcessParams":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass
class CrashOutcome:
    """Simulated crash history of every segment.

    Attributes
    ----------
    total_counts:
        4-year crash count per segment.
    year_counts:
        (n_segments, 4) counts per study year.
    structural_counts / background_counts:
        The two regime components (diagnostics; their sum is
        ``total_counts``).
    propensity:
        The latent structural score ``z`` (diagnostics only).
    """

    total_counts: np.ndarray
    year_counts: np.ndarray
    structural_counts: np.ndarray
    background_counts: np.ndarray
    propensity: np.ndarray
    params: CrashProcessParams = field(default_factory=CrashProcessParams)

    @property
    def n_segments(self) -> int:
        return self.total_counts.shape[0]

    @property
    def n_crashes(self) -> int:
        return int(self.total_counts.sum())

    def count_histogram(self) -> dict[int, int]:
        """count value → number of segments with that 4-year count."""
        values, freq = np.unique(self.total_counts, return_counts=True)
        return {int(v): int(f) for v, f in zip(values, freq)}


class CrashProcess:
    """Simulates the zero-altered crash process over generated segments."""

    def __init__(self, params: CrashProcessParams | None = None):
        self.params = params or CrashProcessParams()

    # -- latent score -------------------------------------------------
    def propensity(
        self, segments: GeneratedSegments, rng: np.random.Generator
    ) -> np.ndarray:
        """Structural crash propensity z (standardised linear score)."""
        p = self.params
        curv = segments.true_values["curvature"]
        inter = segments.true_values["intersection_density"]
        parts = [
            p.w_deficiency * _standardise(segments.deficiency),
            p.w_exposure * _standardise(segments.exposure),
            p.w_curvature * _standardise(np.log1p(curv)),
            p.w_intersections * _standardise(inter),
        ]
        z = np.sum(parts, axis=0)
        z = _standardise(z)
        if p.z_noise_sd > 0:
            z = z + rng.normal(0.0, p.z_noise_sd, size=z.shape[0])
        return z

    # -- counts -------------------------------------------------------------
    def simulate(
        self, segments: GeneratedSegments, rng: np.random.Generator
    ) -> CrashOutcome:
        """Draw the 4-year crash history for every segment."""
        p = self.params
        n = segments.n_segments
        z = self.propensity(segments, rng)

        # Structural regime: hurdle, then shifted negative binomial.
        hurdle_prob = _sigmoid(p.hurdle_intercept + p.hurdle_slope * z)
        active = rng.random(n) < hurdle_prob
        mu = np.exp(p.count_log_mean + p.count_z_gain * z)
        # Gamma-Poisson mixture == negative binomial with mean mu,
        # shape count_dispersion.
        lam = rng.gamma(
            shape=p.count_dispersion, scale=mu / p.count_dispersion, size=n
        )
        structural = np.where(active, p.count_offset + rng.poisson(lam), 0)

        # Background regime: thin gamma-mixed Poisson tied to exposure
        # only.  The gamma mixing gives a small population of "unlucky"
        # good roads with several behavioural crashes.
        exposure_mult = np.exp(
            p.background_exposure_gain * _standardise(segments.exposure)
        )
        bg_mean = p.background_rate * exposure_mult
        bg_lam = rng.gamma(
            shape=p.background_dispersion,
            scale=bg_mean / p.background_dispersion,
            size=n,
        )
        background = rng.poisson(bg_lam)

        total = structural + background
        year_counts = self._split_years(total, rng)
        return CrashOutcome(
            total_counts=total.astype(np.int64),
            year_counts=year_counts,
            structural_counts=structural.astype(np.int64),
            background_counts=background.astype(np.int64),
            propensity=z,
            params=p,
        )

    def _split_years(
        self, total: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        weights = np.asarray(self.params.year_weights, dtype=np.float64)
        if weights.shape != (len(STUDY_YEARS),) or (weights <= 0).any():
            raise ConfigurationError(
                f"year_weights must be {len(STUDY_YEARS)} positive values"
            )
        probs = weights / weights.sum()
        return rng.multinomial(total, probs)

    # -- crash-level attributes -----------------------------------------------
    def crash_attributes(
        self,
        segments: GeneratedSegments,
        outcome: CrashOutcome,
        rng: np.random.Generator,
    ) -> dict[str, list]:
        """Per-crash attributes, expanded to one entry per crash.

        Wet-surface probability rises as skid resistance falls (the
        authors' prior study found differing wet/dry distributions with
        respect to F60); severity is drawn from speed environment.
        """
        f60 = segments.true_values["skid_resistance_f60"]
        speed = segments.true_values["speed_limit"]
        years: list[float] = []
        wet: list[str] = []
        severity: list[str] = []
        for seg_index in range(outcome.n_segments):
            for year_index, year in enumerate(STUDY_YEARS):
                count = int(outcome.year_counts[seg_index, year_index])
                if count == 0:
                    continue
                p_wet = float(np.clip(0.75 - 0.85 * f60[seg_index], 0.05, 0.75))
                sev_high = float(np.clip((speed[seg_index] - 50) / 120, 0.05, 0.5))
                for _ in range(count):
                    years.append(float(year))
                    wet.append("wet" if rng.random() < p_wet else "dry")
                    roll = rng.random()
                    if roll < sev_high:
                        severity.append("hospitalisation_or_fatal")
                    elif roll < sev_high + 0.35:
                        severity.append("medical_treatment")
                    else:
                        severity.append("property_damage")
        return {
            "crash_year": years,
            "surface_condition": wet,
            "severity": severity,
        }


def _standardise(values: np.ndarray) -> np.ndarray:
    sd = values.std()
    if sd == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / sd


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
