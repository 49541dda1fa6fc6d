"""Figure 4 — phase 3 crash-count ranges by cluster.

The paper clusters the crash-only data with simple k-means (k = 32) on
road attributes and reads per-cluster crash-count box ranges: six very
low-crash clusters whose IQRs sit within 0–4 crashes, roughly seven
more mostly below 10, and a supporting ANOVA with p ≈ 0.

Benchmark unit: the full phase-3 run (k-means fit + range analysis +
ANOVA).  Emitted: per-cluster box ranges and the ANOVA verdict.
"""

from benchmarks.conftest import emit
from repro.core.reporting import render_box_ranges


def test_figure4(benchmark, study):
    analysis = benchmark.pedantic(
        study.run_phase3,
        kwargs={"n_clusters": 32},
        rounds=1,
        iterations=1,
    )

    boxes = [
        (
            f"cluster {p.cluster_id:02d}",
            p.minimum,
            p.q1,
            p.median,
            p.q3,
            p.maximum,
        )
        for p in analysis.profiles
    ]
    text = render_box_ranges(
        boxes,
        title="Figure 4: crash-count ranges by cluster (sorted by mean)",
        axis_max=min(80.0, max(p.maximum for p in analysis.profiles)),
    )
    text += (
        f"\n\nvery-low-crash clusters (IQR within 0-4): "
        f"{analysis.n_very_low_crash_clusters}"
        f"\nclusters mostly below 10 crashes:        "
        f"{analysis.n_mostly_below_ten_clusters}"
        f"\nband mix: {analysis.band_counts()}"
        f"\nANOVA: F={analysis.anova.f_statistic:.1f}, "
        f"p={analysis.anova.p_value:.3g}, "
        f"eta^2={analysis.anova.eta_squared:.3f}"
    )
    emit("figure4", text)

    # Paper's findings, as shape:
    # 1. Several amply-packed very-low-crash clusters exist.
    ample_low = [
        p
        for p in analysis.profiles
        if p.is_very_low_crash and p.n_instances >= 20
    ]
    assert len(ample_low) >= 3
    # 2. More clusters sit mostly below 10 crashes.
    assert (
        analysis.n_very_low_crash_clusters
        + analysis.n_mostly_below_ten_clusters
        >= 6
    )
    # 3. Clusters span low / medium / high bands.
    bands = analysis.band_counts()
    assert bands["low"] >= 1 and bands["high"] >= 1
    # 4. ANOVA p-value ~ 0.
    assert analysis.anova.p_value < 1e-12
    assert analysis.supports_non_crash_prone_roads()
