"""Model-serving subsystem: registry → engine → HTTP.

The paper's future work is deployment — "embed with a strategic and
operational decision support system".  This package is that serving
layer, built entirely on the standard library:

:class:`~repro.serving.registry.ScorerRegistry`
    Discovers, versions and hot-reloads saved
    :class:`~repro.core.deployment.CrashPronenessScorer` artefacts from
    a model directory, with checksum validation and fail-loud rejection
    of stale format versions.
:class:`~repro.serving.engine.ScoringEngine`
    Input validation and encoding against the scorer's expected
    segment schema, micro-batched scoring (concurrent requests
    coalesce into single compiled-plan passes) and an LRU result cache
    keyed by encoded rows.
:class:`~repro.serving.http.ScoringService`
    A ``socketserver.ThreadingTCPServer`` (one thread per connection)
    behind the module's own HTTP/1.1 framing: a request reader with
    fixed line and header caps, ``Content-Length`` bodies only, one
    ``sendall`` per response and a kernel-side read/write deadline on
    every connection.  It exposes ``/healthz``, ``/models``,
    ``/metrics``, ``/v1/score`` and ``/v1/score/batch`` as JSON, with
    per-endpoint request counters, latency histograms
    (:class:`~repro.serving.metrics.RequestMetrics`, built on one
    :class:`~repro.obs.histogram.LatencyHistogram` per endpoint) and a
    request-body size limit.

The CLI front-ends are ``repro-study serve <model_dir>`` and
``repro-study score``; the load benchmarks live in
``benchmarks/bench_serving.py`` and ``benchmarks/bench_loadtest.py``.
"""

from repro.serving.engine import LRUResultCache, ScoringEngine
from repro.serving.http import ScoringService, TextResponse
from repro.serving.metrics import RequestMetrics
from repro.serving.registry import RegisteredScorer, ScorerRegistry

__all__ = [
    "LRUResultCache",
    "ScoringEngine",
    "ScoringService",
    "TextResponse",
    "RequestMetrics",
    "RegisteredScorer",
    "ScorerRegistry",
]
