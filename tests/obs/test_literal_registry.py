"""The frozen registry of observability name literals (REP104's anchor).

Every Prometheus metric name and every span name emitted anywhere in
``src/`` must appear in the sets below. This file is therefore two
things at once:

* a **change detector** — adding, renaming or deleting a metric/span
  makes this test fail until the registry is updated, so telemetry
  renames are always deliberate;
* the **reference corpus** for lint rule REP104 — a name quoted here
  counts as "asserted somewhere", so a name emitted in ``src/`` but
  missing from this registry fails both this test *and* the lint.

The sets are sorted and exhaustive on purpose; do not replace them
with a computed expression, or REP104 loses its reference.
"""

from pathlib import Path

from repro.analysis.concurrency import collect_literals
from repro.analysis.engine import build_project

SRC = Path(__file__).resolve().parents[2] / "src"

EXPECTED_METRICS = frozenset({
    "repro_build_info",
    "repro_models",
    "repro_profile_distinct_stacks",
    "repro_profile_dropped_stacks_total",
    "repro_profile_samples_total",
    "repro_registry_degraded_models",
    "repro_registry_loads_total",
    "repro_registry_refreshes_total",
    "repro_registry_reload_errors_total",
    "repro_request_duration_seconds",
    "repro_request_duration_seconds_bucket",
    "repro_request_duration_seconds_count",
    "repro_request_duration_seconds_sum",
    "repro_request_errors_total",
    "repro_requests_total",
    "repro_route_graph_builds_total",
    "repro_route_graphs_cached",
    "repro_route_hotspot_clusters",
    "repro_route_plans_total",
    "repro_route_store_entries",
    "repro_route_store_hits_total",
    "repro_route_store_invalidations_total",
    "repro_route_store_misses_total",
    "repro_slo_budget_remaining",
    "repro_slo_burn_rate",
    "repro_uptime_seconds",
    "repro_window_error_rate",
    "repro_window_p95_seconds",
    "repro_window_request_rate",
    "repro_window_requests",
})

EXPECTED_SPANS = frozenset({
    "engine.batch",
    "engine.score_many",
    "engine.score_rows",
    "executor.run",
    "http.request",
})


def _collected():
    _contexts, graph, _model = build_project([SRC])
    uses, n_dynamic = collect_literals(graph)
    return uses, n_dynamic


def test_emitted_metric_names_match_registry():
    uses, _ = _collected()
    emitted = {u.literal for u in uses if u.kind == "metric"}
    assert emitted == EXPECTED_METRICS, (
        f"metric registry drift: new={sorted(emitted - EXPECTED_METRICS)} "
        f"gone={sorted(EXPECTED_METRICS - emitted)}"
    )


def test_emitted_span_names_match_registry():
    uses, _ = _collected()
    emitted = {u.literal for u in uses if u.kind == "span"}
    assert emitted == EXPECTED_SPANS, (
        f"span registry drift: new={sorted(emitted - EXPECTED_SPANS)} "
        f"gone={sorted(EXPECTED_SPANS - emitted)}"
    )


def test_every_metric_literal_is_namespaced():
    uses, _ = _collected()
    for use in uses:
        if use.kind == "metric":
            assert use.literal.startswith("repro_"), use.literal


def test_dynamic_names_stay_rare():
    # f-string span names (e.g. stage.{name}) are invisible to REP104;
    # keep their count pinned so new dynamic names are a conscious choice.
    _, n_dynamic = _collected()
    assert n_dynamic <= 12, f"{n_dynamic} dynamic metric/span names"
