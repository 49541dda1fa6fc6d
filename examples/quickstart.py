"""Quickstart: generate a synthetic road-crash dataset and run the
full crash-proneness study.

Usage::

    python examples/quickstart.py [--seed N] [--segments N]

This is the 2-minute tour: a small network, all three modelling phases
with their per-stage timings, and the selected crash-proneness
threshold — the paper's headline result, on your machine.
"""

from __future__ import annotations

import argparse

from repro import CrashPronenessStudy, QDTMRSyntheticGenerator, small_config
from repro.core.reporting import render_series, render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--segments", type=int, default=6000)
    args = parser.parse_args()

    print("Generating synthetic QDTMR-style dataset ...")
    config = small_config(n_segments=args.segments, n_towns=18)
    dataset = QDTMRSyntheticGenerator(config).generate(seed=args.seed)
    print(
        f"  {dataset.segment_table.n_rows} road segments, "
        f"{dataset.n_crash_instances} crash instances, "
        f"{dataset.n_no_crash_instances} zero-altered no-crash instances"
    )

    print("\nRunning the three-phase study ...")
    study = CrashPronenessStudy(dataset, seed=args.seed, repeats=2)
    report = study.run_full_study(n_clusters=16)

    print("\n--- stage timings " + "-" * 39)
    print(report.timings.render())

    print()
    print(
        render_series(
            {
                "phase 1 MCPV": report.phase1.mcpv_series(),
                "phase 2 MCPV": report.phase2.mcpv_series(),
                "phase 2 R^2": report.phase2.r_squared_series(),
            },
            x_label="crash threshold",
            title="Model efficiency across crash-proneness thresholds",
        )
    )

    print("\n--- threshold selection " + "-" * 33)
    print(report.selection.describe())
    annual_rate = report.selection.selected_threshold / 4
    print(
        f"=> a road segment is crash prone above "
        f"{report.selection.selected_threshold} crashes per 4 years "
        f"(~{annual_rate:g}/year)"
    )

    print("\n--- phase 3 clustering " + "-" * 34)
    clustering = report.clustering
    print(
        render_table(
            ["band", "clusters"],
            list(clustering.band_counts().items()),
            title="Cluster crash-count bands",
        )
    )
    print(
        f"very-low-crash clusters (IQR within 0-4): "
        f"{clustering.n_very_low_crash_clusters}"
    )
    print(
        f"ANOVA on cluster means: F={clustering.anova.f_statistic:.1f}, "
        f"p={clustering.anova.p_value:.3g}"
    )
    verdict = (
        "supported"
        if clustering.supports_non_crash_prone_roads()
        else "not supported"
    )
    print(f"non-crash-prone road population: {verdict}")


if __name__ == "__main__":
    main()
