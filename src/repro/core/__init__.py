"""The paper's contribution: crash-proneness threshold methodology."""

from repro.core.assessment import (
    ClassifierAssessment,
    ThresholdSelection,
    assess_scores,
    select_best_threshold,
)
from repro.core.clustering_analysis import (
    ClusterCrashProfile,
    ClusteringAnalysis,
    analyse_clusters,
    run_phase3_clustering,
)
from repro.core.attribute_analysis import (
    AttributeCorrelation,
    AttributeSignature,
    attribute_crash_correlations,
    cluster_attribute_signatures,
    tree_feature_importance,
)
from repro.core.model_quality import (
    QualityPoint,
    QualityProfile,
    train_validation_profile,
)
from repro.core.deployment import CrashPronenessScorer, SegmentScore
from repro.core.wet_dry import WetDryResult, wet_dry_analysis
from repro.core.reporting import (
    format_cell,
    render_box_ranges,
    render_histogram,
    render_series,
    render_table,
)
from repro.core.study import (
    CrashPronenessStudy,
    PhaseResult,
    StudyReport,
    SupportingModelResult,
    TreeModelResult,
)
from repro.core.thresholds import (
    CRASH_COUNT_COLUMN,
    NEGATIVE_LABEL,
    PHASE1_THRESHOLDS,
    PHASE2_THRESHOLDS,
    POSITIVE_LABEL,
    TARGET_COLUMN,
    ThresholdDataset,
    build_threshold_dataset,
    build_threshold_series,
    table1_rows,
)

__all__ = [
    "ClassifierAssessment",
    "ThresholdSelection",
    "assess_scores",
    "select_best_threshold",
    "ClusterCrashProfile",
    "ClusteringAnalysis",
    "analyse_clusters",
    "run_phase3_clustering",
    "CrashPronenessScorer",
    "SegmentScore",
    "AttributeSignature",
    "AttributeCorrelation",
    "cluster_attribute_signatures",
    "attribute_crash_correlations",
    "tree_feature_importance",
    "WetDryResult",
    "wet_dry_analysis",
    "QualityPoint",
    "QualityProfile",
    "train_validation_profile",
    "CrashPronenessStudy",
    "PhaseResult",
    "StudyReport",
    "SupportingModelResult",
    "TreeModelResult",
    "ThresholdDataset",
    "build_threshold_dataset",
    "build_threshold_series",
    "table1_rows",
    "CRASH_COUNT_COLUMN",
    "TARGET_COLUMN",
    "NEGATIVE_LABEL",
    "POSITIVE_LABEL",
    "PHASE1_THRESHOLDS",
    "PHASE2_THRESHOLDS",
    "format_cell",
    "render_table",
    "render_series",
    "render_histogram",
    "render_box_ranges",
]
