"""Prometheus text-format exposition of the serving metrics.

Renders :class:`~repro.serving.metrics.RequestMetrics` snapshots and
per-engine counters as Prometheus exposition format 0.0.4 (the plain
text a ``/metrics`` scrape expects): request counters and error
counters with ``endpoint`` / ``error_type`` labels, a latency
histogram per endpoint over the metrics layer's fixed bucket bounds,
and engine/cache gauges.  The JSON ``GET /metrics`` stays the
human-and-test-facing view; ``GET /metrics?format=prometheus`` serves
this one.

:func:`validate_exposition` is the matching checker (used by the
golden-format test and the CI smoke step): line grammar, TYPE-before-
samples, cumulative bucket monotonicity and the ``+Inf``/``_count``
agreement histograms require.
"""

from __future__ import annotations

import math
import re

from repro.exceptions import ObservabilityError

__all__ = ["render_prometheus", "validate_exposition", "CONTENT_TYPE"]

#: The scrape Content-Type for exposition format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float | int) -> str:
    """Deterministic sample formatting: ints bare, floats via repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _fmt(bound)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: dict[str, str], value: float | int
    ) -> None:
        if labels:
            body = ",".join(
                f'{key}="{_escape_label(str(val))}"'
                for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


#: engine.stats() keys exposed as counters (monotonic over the engine's
#: lifetime) vs gauges.
_ENGINE_COUNTERS = (
    ("rows_scored", "repro_engine_rows_scored_total",
     "Rows scored by the engine (all paths)."),
    ("batches", "repro_engine_batches_total",
     "Micro-batches executed by the engine worker."),
    ("cache_hits", "repro_engine_cache_hits_total",
     "LRU result-cache hits."),
    ("cache_misses", "repro_engine_cache_misses_total",
     "LRU result-cache misses."),
)

_ENGINE_GAUGES = (
    ("cache_size", "repro_engine_cache_size",
     "Rows currently held by the LRU result cache."),
    ("max_batch_observed", "repro_engine_max_batch_observed",
     "Largest micro-batch executed so far."),
)


def render_prometheus(
    endpoints: dict[str, dict],
    engines: dict[str, dict] | None = None,
    uptime_seconds: float | None = None,
    n_models: int | None = None,
    registry: dict | None = None,
    routing: dict | None = None,
    windows: dict[str, dict] | None = None,
    slo: dict | None = None,
    build: dict | None = None,
    profile: dict | None = None,
) -> str:
    """Exposition text from a metrics snapshot.

    ``endpoints`` is :meth:`RequestMetrics.prometheus_snapshot` output
    (per-endpoint count / sum / errors / error_types / cumulative
    buckets); ``engines`` maps model name → ``ScoringEngine.stats()``;
    ``registry`` is :meth:`ScorerRegistry.stats()` (load/refresh
    counters plus typed reload-failure counters); ``routing`` is
    :meth:`RoutePlanner.stats()` (graph builds, plan counters, route
    store hit/miss/invalidation); ``windows`` is
    :meth:`RequestMetrics.windowed_summary` (endpoint → window →
    rolling summary); ``slo`` is
    :meth:`~repro.obs.burnrate.SLOBurnEngine.snapshot`; ``build`` is
    the build-identity label set (version / python / numpy /
    native_kernel); ``profile`` is
    :meth:`~repro.obs.profile.SamplingProfiler.stats`.  Output
    ordering is fully deterministic (sorted label values), which the
    golden-format test relies on.
    """
    w = _Writer()
    if build is not None:
        w.family("repro_build_info", "gauge",
                 "Build identity; always 1, labels carry the facts.")
        w.sample(
            "repro_build_info",
            {key: str(build[key]) for key in sorted(build)},
            1,
        )
    if uptime_seconds is not None:
        w.family("repro_uptime_seconds", "gauge",
                 "Seconds since the service started.")
        w.sample("repro_uptime_seconds", {}, uptime_seconds)
    if n_models is not None:
        w.family("repro_models", "gauge",
                 "Registered scorer artefacts.")
        w.sample("repro_models", {}, n_models)

    names = sorted(endpoints)
    w.family("repro_requests_total", "counter",
             "Requests handled per endpoint.")
    for name in names:
        w.sample(
            "repro_requests_total",
            {"endpoint": name},
            endpoints[name]["count"],
        )
    w.family("repro_request_errors_total", "counter",
             "Request errors per endpoint and error type.")
    for name in names:
        error_types = endpoints[name]["error_types"]
        for error_type in sorted(error_types):
            w.sample(
                "repro_request_errors_total",
                {"endpoint": name, "error_type": error_type},
                error_types[error_type],
            )
    w.family("repro_request_duration_seconds", "histogram",
             "Request latency per endpoint.")
    for name in names:
        record = endpoints[name]
        for bound, cumulative in record["buckets"]:
            w.sample(
                "repro_request_duration_seconds_bucket",
                {"endpoint": name, "le": _fmt_bound(bound)},
                cumulative,
            )
        w.sample(
            "repro_request_duration_seconds_bucket",
            {"endpoint": name, "le": "+Inf"},
            record["count"],
        )
        w.sample(
            "repro_request_duration_seconds_sum",
            {"endpoint": name},
            record["sum_seconds"],
        )
        w.sample(
            "repro_request_duration_seconds_count",
            {"endpoint": name},
            record["count"],
        )

    for stat_key, metric, help_text in _ENGINE_COUNTERS:
        w.family(metric, "counter", help_text)
        for model in sorted(engines or {}):
            w.sample(metric, {"model": model}, (engines or {})[model][stat_key])
    for stat_key, metric, help_text in _ENGINE_GAUGES:
        w.family(metric, "gauge", help_text)
        for model in sorted(engines or {}):
            w.sample(metric, {"model": model}, (engines or {})[model][stat_key])

    if registry is not None:
        w.family("repro_registry_loads_total", "counter",
                 "Scorer artefacts (re)loaded from disk.")
        w.sample("repro_registry_loads_total", {}, registry["loads"])
        w.family("repro_registry_refreshes_total", "counter",
                 "Model-directory rescans.")
        w.sample(
            "repro_registry_refreshes_total", {}, registry["refreshes"]
        )
        w.family("repro_registry_reload_errors_total", "counter",
                 "Failed hot reloads by model and error type "
                 "(last-good scorer kept serving).")
        for key in sorted(registry["reload_errors"]):
            model, _, error_type = key.partition("/")
            w.sample(
                "repro_registry_reload_errors_total",
                {"model": model, "error_type": error_type},
                registry["reload_errors"][key],
            )
        w.family("repro_registry_degraded_models", "gauge",
                 "Models currently serving a last-good version because "
                 "their backing file is bad.")
        w.sample(
            "repro_registry_degraded_models",
            {},
            len(registry["degraded"]),
        )

    if routing is not None:
        store = routing["store"]
        w.family("repro_route_graph_builds_total", "counter",
                 "Risk graphs built (one per scorer artefact version).")
        w.sample("repro_route_graph_builds_total", {},
                 routing["graph_builds"])
        w.family("repro_route_plans_total", "counter",
                 "Route plans answered, by query kind.")
        for kind in sorted(routing["plans"]):
            w.sample(
                "repro_route_plans_total",
                {"kind": kind},
                routing["plans"][kind],
            )
        w.family("repro_route_store_hits_total", "counter",
                 "Route store cache hits.")
        w.sample("repro_route_store_hits_total", {}, store["hits"])
        w.family("repro_route_store_misses_total", "counter",
                 "Route store cache misses.")
        w.sample("repro_route_store_misses_total", {}, store["misses"])
        w.family("repro_route_store_invalidations_total", "counter",
                 "Route store entries purged by artefact hot reloads.")
        w.sample(
            "repro_route_store_invalidations_total",
            {},
            store["invalidations"],
        )
        w.family("repro_route_store_entries", "gauge",
                 "Route responses currently cached.")
        w.sample("repro_route_store_entries", {}, store["entries"])
        w.family("repro_route_graphs_cached", "gauge",
                 "Risk graphs currently held in the planner LRU.")
        w.sample("repro_route_graphs_cached", {},
                 routing["graphs_cached"])
        w.family("repro_route_hotspot_clusters", "gauge",
                 "Spatial k-means hotspot clusters on the network.")
        w.sample("repro_route_hotspot_clusters", {}, routing["clusters"])

    if windows:
        _render_windows(w, windows)
    if slo is not None:
        _render_slo(w, slo)
    if profile is not None:
        _render_profile(w, profile)
    return w.text()


def _render_windows(w: _Writer, windows: dict[str, dict]) -> None:
    """Rolling-window gauges: one sample per (endpoint, window)."""
    w.family("repro_window_requests", "gauge",
             "Requests observed inside the rolling window.")
    for endpoint in sorted(windows):
        for window in sorted(windows[endpoint]):
            w.sample(
                "repro_window_requests",
                {"endpoint": endpoint, "window": window},
                windows[endpoint][window]["count"],
            )
    w.family("repro_window_request_rate", "gauge",
             "Requests per second averaged over the rolling window.")
    for endpoint in sorted(windows):
        for window in sorted(windows[endpoint]):
            w.sample(
                "repro_window_request_rate",
                {"endpoint": endpoint, "window": window},
                windows[endpoint][window]["rate"],
            )
    w.family("repro_window_error_rate", "gauge",
             "Error fraction inside the rolling window (0 when idle).")
    for endpoint in sorted(windows):
        for window in sorted(windows[endpoint]):
            w.sample(
                "repro_window_error_rate",
                {"endpoint": endpoint, "window": window},
                windows[endpoint][window]["error_rate"],
            )
    w.family("repro_window_p95_seconds", "gauge",
             "p95 latency estimate over the rolling window "
             "(absent while the window is empty).")
    for endpoint in sorted(windows):
        for window in sorted(windows[endpoint]):
            p95 = windows[endpoint][window]["p95"]
            if p95 is not None:
                w.sample(
                    "repro_window_p95_seconds",
                    {"endpoint": endpoint, "window": window},
                    p95,
                )


def _render_slo(w: _Writer, slo: dict) -> None:
    """Burn-rate gauges from an ``SLOBurnEngine.snapshot()``."""
    rules = slo.get("rules", [])
    w.family("repro_slo_burn_rate", "gauge",
             "Error-budget burn rate (1.0 = spending exactly the "
             "budget) per SLO rule, endpoint and window.")
    for record in rules:
        base = {
            "slo": record["slo"],
            "rule": record["rule"],
            "endpoint": record["endpoint"],
        }
        w.sample(
            "repro_slo_burn_rate",
            {**base, "window": "fast"},
            record["fast_burn_rate"],
        )
        w.sample(
            "repro_slo_burn_rate",
            {**base, "window": "slow"},
            record["slow_burn_rate"],
        )
    w.family("repro_slo_budget_remaining", "gauge",
             "Fraction of the slow-window error budget still unspent.")
    for record in rules:
        w.sample(
            "repro_slo_budget_remaining",
            {
                "slo": record["slo"],
                "rule": record["rule"],
                "endpoint": record["endpoint"],
            },
            record["budget_remaining"],
        )


def _render_profile(w: _Writer, profile: dict) -> None:
    """Sampler health from ``SamplingProfiler.stats()``."""
    w.family("repro_profile_samples_total", "counter",
             "Stack samples taken by the continuous profiler.")
    w.sample("repro_profile_samples_total", {}, profile["samples"])
    w.family("repro_profile_dropped_stacks_total", "counter",
             "Samples dropped because the distinct-stack cap was hit.")
    w.sample(
        "repro_profile_dropped_stacks_total",
        {},
        profile["dropped_stacks"],
    )
    w.family("repro_profile_distinct_stacks", "gauge",
             "Distinct folded stacks currently held by the profiler.")
    w.sample(
        "repro_profile_distinct_stacks", {}, profile["distinct_stacks"]
    )


# -- validation (golden tests + CI smoke) ------------------------------------

_COMMENT_RE = re.compile(
    r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$"
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[0-9eE.+-]+|\+Inf|-Inf|NaN)$"
)
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ObservabilityError(
            f"invalid sample value {text!r}"
        ) from exc


def validate_exposition(text: str) -> int:
    """Check exposition text; returns the number of samples.

    Enforces the grammar this module emits and the histogram
    invariants a scraper depends on: every sample's family has a
    preceding ``# TYPE``; histogram bucket series are cumulative,
    non-decreasing, end with ``le="+Inf"``; and the ``+Inf`` bucket
    equals the family's ``_count``.  Raises
    :class:`ObservabilityError` with the offending line on violation.
    """
    typed: dict[str, str] = {}
    n_samples = 0
    histogram_state: dict[tuple[str, str], float] = {}
    inf_seen: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], float] = {}
    if text and not text.endswith("\n"):
        raise ObservabilityError("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            match = _COMMENT_RE.match(line)
            if match is None:
                raise ObservabilityError(
                    f"line {lineno}: malformed comment: {line!r}"
                )
            if match.group(1) == "TYPE":
                name = line.split(" ", 3)[2]
                typed[name] = line.rsplit(" ", 1)[1]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(
                f"line {lineno}: malformed sample: {line!r}"
            )
        name = match.group("name")
        labels_text = match.group("labels")
        labels: dict[str, str] = {}
        if labels_text:
            for part in labels_text.split(","):
                if not _LABEL_RE.match(part):
                    raise ObservabilityError(
                        f"line {lineno}: malformed label {part!r}"
                    )
                key, _, raw = part.partition("=")
                labels[key] = raw[1:-1]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base is not None and typed.get(base) == "histogram":
                family = base
                break
        if family not in typed:
            raise ObservabilityError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        value = _parse_value(match.group("value"))
        n_samples += 1
        if typed.get(family) == "histogram":
            series = (
                family,
                ",".join(
                    f"{k}={v}"
                    for k, v in sorted(labels.items())
                    if k != "le"
                ),
            )
            if name.endswith("_bucket"):
                if "le" not in labels:
                    raise ObservabilityError(
                        f"line {lineno}: histogram bucket without 'le'"
                    )
                previous = histogram_state.get(series)
                if previous is not None and value < previous:
                    raise ObservabilityError(
                        f"line {lineno}: bucket series {series[0]} not "
                        f"cumulative ({value} < {previous})"
                    )
                histogram_state[series] = value
                if labels["le"] == "+Inf":
                    inf_seen[series] = value
            elif name.endswith("_count"):
                counts[series] = value
    for series, count in counts.items():
        if series not in inf_seen:
            raise ObservabilityError(
                f"histogram {series[0]} has _count but no le=\"+Inf\" bucket"
            )
        if inf_seen[series] != count:
            raise ObservabilityError(
                f"histogram {series[0]}: +Inf bucket {inf_seen[series]} "
                f"!= _count {count}"
            )
    return n_samples
