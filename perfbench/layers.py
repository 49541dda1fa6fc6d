"""Which program functions the traced run wraps, and the per-layer
metrics computed from them.

Each layer is named after its module.  A target that no longer exists
(a later refactor renamed or removed it) is reported as missing and
contributes zero calls; the run itself carries on.

Time metrics are per-op means of the time charged to the layer (see
:mod:`perfbench.spans`); together with ``unattributed_ms`` they add up to
``trace.op_ms``.  Count metrics are calls per op over the measured
window, ratios are hits over calls in that window, and the two set-up
metrics are the time a process spent in them before its first timed op.
"""

from __future__ import annotations

from perfbench.spans import (
    COUNT,
    OUTSIDE,
    PASS,
    QUEUE_WAIT,
    SUBMIT,
    UNATTRIBUTED,
    WAIT,
    Attribution,
    Op,
    Target,
)

_TASK_LAYERS = {
    "phase1": "core.phase1",
    "phase2": "core.phase2",
    "supporting-bayes": "core.bayes",
}


def _task_layer(args, kwargs) -> str:
    """A sweep task's body belongs to the phase that dispatched it."""
    task = args[0] if args else kwargs["task"]
    return _TASK_LAYERS.get(getattr(task, "stage", ""), "parallel.overhead")


def _row_count(args, kwargs, result) -> int:
    features = args[1] if len(args) > 1 else kwargs["features"]
    return int(features.n_rows)


def _row_id(args, kwargs, result) -> int:
    return id(args[1] if len(args) > 1 else kwargs["row"])


def _row_ids(args, kwargs, result) -> tuple:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return tuple(id(row) for row in rows)


def _hit(args, kwargs, result) -> int:
    return int(result is not None)


def _dataset_cached(args, kwargs, result) -> int:
    cache, table, threshold = args[0], args[1], args[2]
    return int(cache.contains(table, threshold))


_SPLITS = (
    "best_numeric_split_chi2",
    "best_numeric_split_f",
    "best_categorical_split_chi2",
    "best_categorical_split_f",
)

TREE_FITS = (
    "repro.mining.tree.decision_tree:DecisionTreeClassifier.fit",
    "repro.mining.tree.regression_tree:RegressionTree.fit",
)
SPLIT_PATHS = tuple(f"repro.mining.tree.splitting:{name}" for name in _SPLITS)
GENERATE = "repro.roads.generator:QDTMRSyntheticGenerator.generate"
GRAPH_BUILD = "repro.routing.graph:RiskGraph.build"

TARGETS: list[Target] = [
    Target("roads.generate", GENERATE),
    Target("core.phase1", "repro.core.study:CrashPronenessStudy.run_phase1"),
    Target("core.phase2", "repro.core.study:CrashPronenessStudy.run_phase2"),
    Target(
        "core.bayes", "repro.core.study:CrashPronenessStudy.run_supporting_sweep"
    ),
    Target("core.phase3", "repro.core.study:CrashPronenessStudy.run_phase3"),
    Target(
        "core.thresholds.build",
        "repro.core.thresholds:build_threshold_dataset",
    ),
    Target("core.assess", "repro.core.assessment:assess_scores"),
    Target("parallel.overhead", "repro.parallel.executor:SweepExecutor.run"),
    Target(_task_layer, "repro.parallel.tasks:execute_task"),
    Target(
        "parallel.cache",
        "repro.parallel.cache:ThresholdDatasetCache.get",
        COUNT,
        _dataset_cached,
        before=True,
    ),
    *(Target("mining.tree.grow", path) for path in TREE_FITS),
    Target("mining.tree.grow", "repro.mining.tree.growth:grow_tree"),
    *(Target("mining.tree.split", path) for path in SPLIT_PATHS),
    Target(
        "mining.tree.kernel",
        "repro.mining.tree.compile:TreePlan.evaluate",
        probe=_row_count,
    ),
    Target("evaluation.split", "repro.evaluation.validation:train_valid_split"),
    Target("evaluation.cv", "repro.evaluation.validation:cross_val_scores"),
    Target("mining.kmeans.fit", "repro.mining.kmeans:KMeans.fit"),
    Target("serving.http.handle", "repro.serving.http:ScoringService.handle_post"),
    Target("serving.http.handle", "repro.serving.http:ScoringService.handle_get"),
    Target("serving.registry.get", "repro.serving.registry:ScorerRegistry.get"),
    *(
        Target("serving.engine.wait", f"repro.serving.engine:ScoringEngine.{name}", WAIT)
        for name in ("score_one", "score_many", "score_batch")
    ),
    Target(
        "serving.engine.submit",
        "repro.serving.engine:ScoringEngine.submit",
        SUBMIT,
        _row_id,
    ),
    Target(
        "serving.engine.validate", "repro.serving.engine:ScoringEngine.validate_row"
    ),
    Target(
        "serving.engine.score_rows",
        "repro.serving.engine:ScoringEngine.score_rows",
        PASS,
        _row_ids,
    ),
    Target(
        "serving.engine.cache",
        "repro.serving.engine:LRUResultCache.get",
        COUNT,
        _hit,
    ),
    Target("serving.bulk.build_table", "repro.serving.bulk:build_request_table"),
    Target(
        "core.deployment.score", "repro.core.deployment:CrashPronenessScorer.score"
    ),
    Target(
        "serving.metrics.observe", "repro.serving.metrics:RequestMetrics.observe"
    ),
    Target("obs.prometheus.render", "repro.obs.prometheus:render_prometheus"),
    *(
        Target("routing.plan", f"repro.routing.planner:RoutePlanner.{name}")
        for name in ("plan_safest", "plan_pair", "score_path")
    ),
    *(
        Target("routing.search", f"repro.routing.queries:{name}")
        for name in ("safest_route", "best_route", "score_town_path")
    ),
    Target("routing.store", "repro.routing.store:RouteStore.lookup", COUNT, _hit),
    Target("routing.graph_build", GRAPH_BUILD),
]

#: (metric, layer, unit): per-op time charged to a layer.  Their sum is
#: the traced op time.
TIME_METRICS = [
    ("core.phase1_ms", "core.phase1", "ms"),
    ("core.phase2_ms", "core.phase2", "ms"),
    ("core.bayes_ms", "core.bayes", "ms"),
    ("core.phase3_ms", "core.phase3", "ms"),
    ("core.thresholds.build_ms", "core.thresholds.build", "ms"),
    ("core.assess_ms", "core.assess", "ms"),
    ("parallel.overhead_ms", "parallel.overhead", "ms"),
    ("mining.tree.grow_ms", "mining.tree.grow", "ms"),
    ("mining.tree.split_ms", "mining.tree.split", "ms"),
    ("mining.tree.kernel_ms", "mining.tree.kernel", "ms"),
    ("evaluation.split_ms", "evaluation.split", "ms"),
    ("evaluation.cv_ms", "evaluation.cv", "ms"),
    ("mining.kmeans.fit_ms", "mining.kmeans.fit", "ms"),
    ("serving.http.outside_ms", OUTSIDE, "ms"),
    ("serving.http.handle_ms", "serving.http.handle", "ms"),
    ("serving.registry.get_us", "serving.registry.get", "us"),
    ("serving.engine.queue_wait_ms", QUEUE_WAIT, "ms"),
    ("serving.engine.submit_ms", "serving.engine.submit", "ms"),
    ("serving.engine.validate_ms", "serving.engine.validate", "ms"),
    ("serving.engine.score_rows_ms", "serving.engine.score_rows", "ms"),
    ("serving.bulk.build_table_ms", "serving.bulk.build_table", "ms"),
    ("core.deployment.score_ms", "core.deployment.score", "ms"),
    ("serving.metrics.observe_us", "serving.metrics.observe", "us"),
    ("obs.prometheus.render_ms", "obs.prometheus.render", "ms"),
    ("routing.plan_ms", "routing.plan", "ms"),
    ("routing.search_ms", "routing.search", "ms"),
    ("unattributed_ms", UNATTRIBUTED, "ms"),
]

_SCALE = {"ms": 1e3, "us": 1e6}

#: (metric, target paths): calls per op.
COUNT_METRICS = [
    ("core.thresholds.builds", ("repro.core.thresholds:build_threshold_dataset",)),
    ("parallel.tasks", ("repro.parallel.tasks:execute_task",)),
    ("mining.tree.fits", TREE_FITS),
    ("mining.tree.split_calls", SPLIT_PATHS),
    ("serving.engine.passes", ("repro.serving.engine:ScoringEngine.score_rows",)),
    ("obs.prometheus.scrapes", ("repro.obs.prometheus:render_prometheus",)),
]

#: (metric, target path): hits over calls.
RATIO_METRICS = [
    ("parallel.cache_hit_ratio", "repro.parallel.cache:ThresholdDatasetCache.get"),
    ("serving.engine.cache_hit_ratio", "repro.serving.engine:LRUResultCache.get"),
    ("routing.store_hit_ratio", "repro.routing.store:RouteStore.lookup"),
]

#: (metric, target path): milliseconds per process spent before the
#: first timed op (the work ``setup_s`` contains).
SETUP_METRICS = [
    ("roads.generate_ms", GENERATE),
    ("routing.graph_build_ms", GRAPH_BUILD),
]


class LayerTotals:
    """Accumulates traced processes, then yields the per-layer metrics."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.op_seconds = 0.0
        self.ops = 0
        self.calls: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.kernel_rows = 0
        self.pass_rows = 0
        self.setup: dict[str, float] = {}
        self.processes = 0
        self.missing: set[str] = set()
        self.unknown_layers: set[str] = set()

    def add(self, attribution: Attribution, ops: list[Op]) -> None:
        """Fold in one traced process and the ops it served."""
        if not ops:
            return
        known = {layer for _m, layer, _u in TIME_METRICS}
        for op in ops:
            self.op_seconds += op.end - op.start
            for layer, seconds in attribution.op_times(op).items():
                if layer not in known:
                    self.unknown_layers.add(layer)
                    layer = UNATTRIBUTED
                self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        self.ops += len(ops)
        start = min(op.start for op in ops)
        end = max(op.end for op in ops)
        for path, records in attribution.calls(start, end).items():
            self.calls[path] = self.calls.get(path, 0) + len(records)
            self.hits[path] = self.hits.get(path, 0) + sum(
                1 for r in records if r[3]
            )
            if path == "repro.mining.tree.compile:TreePlan.evaluate":
                self.kernel_rows += sum(r[3] or 0 for r in records)
            if path == "repro.serving.engine:ScoringEngine.score_rows":
                self.pass_rows += sum(len(r[3] or ()) for r in records)
        for metric, path in SETUP_METRICS:
            self.setup[metric] = self.setup.get(
                metric, 0.0
            ) + attribution.setup_seconds(path, start)
        self.processes += 1
        self.missing.update(attribution.trace.missing)

    def metrics(self) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for metric, layer, unit in TIME_METRICS:
            out[metric] = (self.seconds.get(layer, 0.0) / ops * _SCALE[unit], unit)
        for metric, paths in COUNT_METRICS:
            out[metric] = (sum(self.calls.get(p, 0) for p in paths) / ops, "count/op")
        out["mining.tree.kernel_rows"] = (self.kernel_rows / ops, "count/op")
        passes = self.calls.get("repro.serving.engine:ScoringEngine.score_rows", 0)
        out["serving.engine.rows_per_pass"] = (
            self.pass_rows / passes if passes else 0.0,
            "count",
        )
        for metric, path in RATIO_METRICS:
            calls = self.calls.get(path, 0)
            out[metric] = (self.hits.get(path, 0) / calls if calls else 0.0, "ratio")
        for metric, _path in SETUP_METRICS:
            out[metric] = (
                1e3 * self.setup.get(metric, 0.0) / max(self.processes, 1),
                "ms",
            )
        out["trace.op_ms"] = (1e3 * self.op_seconds / ops, "ms")
        return out

    def closure_error_ms(self) -> float:
        """|sum of the time rows - traced op time|, per op, in ms."""
        metrics = self.metrics()
        total = sum(
            metrics[m][0] / _SCALE[u] * 1e3 for m, _layer, u in TIME_METRICS
        )
        return abs(total - metrics["trace.op_ms"][0])
