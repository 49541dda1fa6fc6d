"""repro — reproduction of "Road Crash Proneness Prediction using Data
Mining" (Nayak, Emerson, Weligamage & Piyatrapoomi, EDBT 2011).

Subpackages
-----------
``repro.datatable``
    Columnar table substrate (typed columns, missing-value masks).
``repro.roads``
    Synthetic QDTMR-style road network, segment attributes and the
    zero-altered crash process, calibrated to the paper's Table 1.
``repro.mining``
    From-scratch algorithms: chi-square decision trees, F-test
    regression trees, M5 model trees, naive Bayes, logistic regression,
    neural networks, simple k-means.
``repro.evaluation``
    Table 2 measures (incl. MCPV and Kappa), ROC, validation protocols,
    imbalance handling, ANOVA.
``repro.core``
    The paper's methodology: CP-k threshold datasets, phase 1–3
    orchestration, the MCPV threshold-selection rule and report
    rendering.
``repro.parallel``
    The sweep-execution engine: serial / process backends with
    per-task seed derivation (parallel output is bit-identical to
    serial), threshold dataset caching and per-stage timings.
``repro.serving``
    The deployment layer: versioned scorer registry with hot reload,
    a validating / micro-batching / caching scoring engine, and a
    concurrent JSON-over-HTTP service with request metrics.
``repro.analysis``
    Project-specific static analysis (``repro-study lint``): AST rules
    for determinism, lock hygiene, numeric safety, exception hygiene
    and resource hygiene, with justified inline suppressions and a
    fingerprint baseline.
``repro.obs``
    Observability: span tracing propagated across the process pool and
    micro-batch queue, JSONL sinks, waterfalls, Prometheus exposition.
``repro.loadtest``
    Deterministic load generation (closed / open loop, workload
    profiles) with declarative SLO gating.
``repro.routing``
    Route-risk serving: the road network lowered into a risk-weighted
    graph, safest-vs-shortest queries, and a precomputed route store
    content-addressed to the scorer artefact.

Quick start
-----------
>>> from repro import QDTMRSyntheticGenerator, CrashPronenessStudy, small_config
>>> dataset = QDTMRSyntheticGenerator(small_config()).generate(seed=0)
>>> report = CrashPronenessStudy(dataset).run_full_study()
>>> report.selection.selected_threshold in (2, 4, 8, 16)
True
"""

from repro.core import (
    CrashPronenessStudy,
    PhaseResult,
    StudyReport,
    ThresholdSelection,
    build_threshold_dataset,
    select_best_threshold,
    table1_rows,
)
from repro.datatable import DataTable
from repro.evaluation import BinaryConfusion, kappa, mcpv
from repro.mining import (
    DecisionTreeClassifier,
    KMeans,
    LogisticRegressionClassifier,
    M5ModelTree,
    NaiveBayesClassifier,
    NeuralNetworkClassifier,
    RegressionTree,
    TreeConfig,
)
from repro.parallel import (
    StageTimings,
    SweepExecutor,
    ThresholdDatasetCache,
)
from repro.roads import (
    QDTMRSyntheticGenerator,
    RoadCrashDataset,
    SyntheticStudyConfig,
    paper_scale_config,
    small_config,
)
from repro.serving import ScorerRegistry, ScoringEngine, ScoringService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DataTable",
    "QDTMRSyntheticGenerator",
    "RoadCrashDataset",
    "SyntheticStudyConfig",
    "paper_scale_config",
    "small_config",
    "CrashPronenessStudy",
    "StudyReport",
    "PhaseResult",
    "ThresholdSelection",
    "build_threshold_dataset",
    "select_best_threshold",
    "table1_rows",
    "DecisionTreeClassifier",
    "RegressionTree",
    "M5ModelTree",
    "TreeConfig",
    "NaiveBayesClassifier",
    "LogisticRegressionClassifier",
    "NeuralNetworkClassifier",
    "KMeans",
    "BinaryConfusion",
    "mcpv",
    "kappa",
    "SweepExecutor",
    "ThresholdDatasetCache",
    "StageTimings",
    "ScorerRegistry",
    "ScoringEngine",
    "ScoringService",
]
