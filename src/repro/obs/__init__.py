"""Dependency-free tracing and metrics core shared by every layer.

``repro.obs`` is the observability spine of the reproduction: a
:class:`Tracer` producing nested :class:`Span` trees with
``contextvars`` propagation (and explicit context shipping across the
process-pool boundary), JSON-lines span sinks for ``--trace-out``, a
waterfall renderer for ``repro-study trace show``, Prometheus text
exposition for ``GET /metrics?format=prometheus``, and the structured
JSON access log behind ``serve --access-log``.

The process-wide default tracer is *disabled*: every instrumentation
site in the library (`study`, `executor`, `cache`, `engine`,
`kernel`) costs one attribute check until a CLI flag or service
constructor installs a real tracer.  Tracing is measurement only —
enabling it never changes model outputs.
"""

from repro.obs.accesslog import AccessLog
from repro.obs.burnrate import SLOBurnEngine
from repro.obs.profile import ActiveSpanRegistry, SamplingProfiler
from repro.obs.prometheus import (
    CONTENT_TYPE,
    render_prometheus,
    validate_exposition,
)
from repro.obs.sinks import JsonlSpanSink, read_spans
from repro.obs.window import BucketRing, CountRing, WindowedMetrics
from repro.obs.span import Span, SpanContext, new_span_id, new_trace_id
from repro.obs.trace import (
    Tracer,
    current_context,
    current_tracer,
    get_default_tracer,
    set_default_tracer,
    span,
    use_tracer,
)
from repro.obs.waterfall import group_traces, render_waterfall

__all__ = [
    "AccessLog",
    "ActiveSpanRegistry",
    "BucketRing",
    "CONTENT_TYPE",
    "CountRing",
    "JsonlSpanSink",
    "SLOBurnEngine",
    "SamplingProfiler",
    "Span",
    "SpanContext",
    "Tracer",
    "WindowedMetrics",
    "current_context",
    "current_tracer",
    "get_default_tracer",
    "group_traces",
    "new_span_id",
    "new_trace_id",
    "read_spans",
    "render_prometheus",
    "render_waterfall",
    "set_default_tracer",
    "span",
    "use_tracer",
    "validate_exposition",
]
