"""Calibration of the crash process against the paper's Table 1.

The proprietary QDTMR data cannot be redistributed, so the synthetic
process is instead *calibrated*: its free parameters are tuned until the
instance-weighted crash-count distribution matches the class marginals
the paper reports.  Table 1 gives, for each threshold k ∈ {2, 4, 8, 16,
32, 64}, how many of the 16,750 crash instances sit on segments with
≤ k crashes; together with the overall crash-free segment share and the
mean crash rate this pins down the count distribution's head, body and
tail.

The resulting parameters are baked into
:class:`~repro.roads.crashes.CrashProcessParams` defaults; this module
remains the reproducible tool that produced them (see
``examples/calibrate_generator.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CalibrationError
from repro.roads.crashes import CrashProcess, CrashProcessParams
from repro.roads.network import RoadNetwork
from repro.roads.segments import GeneratedSegments, SegmentAttributeSampler

__all__ = [
    "CalibrationTargets",
    "CalibrationReport",
    "PAPER_TABLE1_TARGETS",
    "weighted_count_cdf",
    "calibrate_crash_process",
]


@dataclass(frozen=True)
class CalibrationTargets:
    """What the calibrated process should reproduce.

    Attributes
    ----------
    weighted_cdf:
        threshold k → share of *crash instances* on segments with
        count ≤ k (Table 1's non-crash-prone shares).
    zero_share:
        Share of segments with zero crashes over the study window.
    mean_count:
        Mean 4-year crash count per segment.
    """

    weighted_cdf: dict[int, float]
    zero_share: float
    mean_count: float


#: Table 1 of the paper, normalised: non-crash-prone instances / 16,750,
#: plus the implied network-level facts (16,155 crash-free of ~20k
#: segments; 16,750 crashes over ~20k segments).
PAPER_TABLE1_TARGETS = CalibrationTargets(
    weighted_cdf={
        2: 3548 / 16750,
        4: 5904 / 16750,
        8: 8677 / 16750,
        16: 12348 / 16750,
        32: 15471 / 16750,
        64: 16576 / 16750,
    },
    zero_share=0.80,
    mean_count=16750 / 20000,
)


@dataclass
class CalibrationReport:
    """Outcome of a calibration run."""

    params: CrashProcessParams
    objective: float
    achieved_cdf: dict[int, float]
    achieved_zero_share: float
    achieved_mean_count: float
    n_evaluations: int
    converged: bool
    history: list[float] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [
            f"objective      : {self.objective:.6f}",
            f"zero share     : {self.achieved_zero_share:.4f}",
            f"mean count     : {self.achieved_mean_count:.4f}",
        ]
        for k, v in sorted(self.achieved_cdf.items()):
            lines.append(f"P_w(count<={k:>3}): {v:.4f}")
        return lines


def weighted_count_cdf(
    counts: np.ndarray, thresholds: tuple[int, ...]
) -> dict[int, float]:
    """Instance-weighted CDF of segment counts.

    Each segment contributes ``count`` instances (one per crash), so the
    share at threshold k is  Σ_{c≤k} c·n_c / Σ c·n_c  — exactly how the
    paper's Table 1 divides its 16,750 crash instances.
    """
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        raise CalibrationError("no crashes simulated; cannot compute CDF")
    return {
        int(k): float(counts[counts <= k].sum() / total) for k in thresholds
    }


def _probe_segments(
    n_probe: int, seed: int
) -> GeneratedSegments:
    rng = np.random.default_rng(seed)
    n_towns = 12
    while True:
        network = RoadNetwork.generate(rng, n_towns=n_towns)
        if network.n_segments >= n_probe:
            break
        n_towns = int(n_towns * 1.6) + 2
    skeletons = network.skeletons[:n_probe]
    sampler = SegmentAttributeSampler(missing_values=False)
    return sampler.sample(skeletons, rng)


#: Calibratable parameters and whether they live on a log scale.
_LOG_SCALE = {
    "hurdle_intercept": False,
    "count_log_mean": False,
    "count_z_gain": True,
    "count_dispersion": True,
    "background_rate": True,
    "hurdle_slope": True,
    "z_noise_sd": True,
}

DEFAULT_FREE_PARAMETERS = (
    "hurdle_intercept",
    "count_log_mean",
    "count_dispersion",
    "hurdle_slope",
    "background_rate",
)


def calibrate_crash_process(
    targets: CalibrationTargets = PAPER_TABLE1_TARGETS,
    base_params: CrashProcessParams | None = None,
    n_probe: int = 20000,
    seed: int = 7,
    max_iterations: int = 400,
    free_parameters: tuple[str, ...] = DEFAULT_FREE_PARAMETERS,
) -> CalibrationReport:
    """Tune the crash process to the targets with multi-start Nelder–Mead.

    ``free_parameters`` chooses which :class:`CrashProcessParams` fields
    the optimiser may move (positive parameters are searched on a log
    scale); everything else stays at ``base_params``.  Each objective
    evaluation simulates the same probe network with the same inner
    seed, so the objective is deterministic in the decision variables.
    """
    from scipy import optimize

    base = base_params or CrashProcessParams()
    unknown = [p for p in free_parameters if p not in _LOG_SCALE]
    if unknown:
        raise CalibrationError(
            f"unknown calibration parameters: {unknown}; "
            f"choose from {sorted(_LOG_SCALE)}"
        )
    if not free_parameters:
        raise CalibrationError("free_parameters must not be empty")
    segments = _probe_segments(n_probe, seed)
    thresholds = tuple(sorted(targets.weighted_cdf))
    history: list[float] = []

    def build(x: np.ndarray) -> CrashProcessParams:
        overrides = {}
        for value, name in zip(x, free_parameters):
            overrides[name] = float(
                np.exp(value) if _LOG_SCALE[name] else value
            )
        return base.with_overrides(**overrides)

    def simulate(params: CrashProcessParams) -> np.ndarray:
        inner = np.random.default_rng(seed + 1)
        return CrashProcess(params).simulate(segments, inner).total_counts

    def objective(x: np.ndarray) -> float:
        counts = simulate(build(x))
        if not counts.any():
            return 1e6
        cdf = weighted_count_cdf(counts, thresholds)
        err = sum(
            (cdf[k] - targets.weighted_cdf[k]) ** 2 for k in thresholds
        )
        err += 4.0 * (float((counts == 0).mean()) - targets.zero_share) ** 2
        err += 1.0 * (float(counts.mean()) - targets.mean_count) ** 2
        history.append(err)
        return err

    x0 = np.array(
        [
            np.log(getattr(base, name))
            if _LOG_SCALE[name]
            else getattr(base, name)
            for name in free_parameters
        ]
    )
    # Nelder–Mead on a stochastic-looking (though deterministic) surface
    # collapses easily; run several jittered starts plus a polish pass
    # from the best, and keep the overall best point.
    start_rng = np.random.default_rng(seed + 2)
    starts = [x0] + [
        x0 + start_rng.normal(0.0, 0.6, size=x0.shape) for _ in range(7)
    ]
    result = None
    for start in starts:
        candidate = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 1e-3, "fatol": 1e-7},
        )
        if result is None or candidate.fun < result.fun:
            result = candidate
    polish = optimize.minimize(
        objective,
        result.x,
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": 1e-4, "fatol": 1e-9},
    )
    if polish.fun < result.fun:
        result = polish
    params = build(result.x)
    counts = simulate(params)
    return CalibrationReport(
        params=params,
        objective=float(result.fun),
        achieved_cdf=weighted_count_cdf(counts, thresholds),
        achieved_zero_share=float((counts == 0).mean()),
        achieved_mean_count=float(counts.mean()),
        n_evaluations=len(history),
        converged=bool(result.success),
        history=history,
    )
