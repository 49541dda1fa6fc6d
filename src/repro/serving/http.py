"""Concurrent JSON-over-HTTP scoring service (stdlib only).

:class:`ScoringService` wires a :class:`~repro.serving.registry.ScorerRegistry`
and per-model :class:`~repro.serving.engine.ScoringEngine` instances
behind a :class:`http.server.ThreadingHTTPServer`:

* ``GET  /healthz``          — liveness + registry size + uptime;
* ``GET  /models``           — refresh the registry and list artefacts;
* ``GET  /metrics``          — per-endpoint request counters / latency
  percentiles, rolling 1m/5m/1h windows, build info, optional SLO
  burn rates, plus per-engine batch and cache stats (JSON), or the
  Prometheus text exposition with ``?format=prometheus``;
* ``GET  /debug/profile``    — the continuous profiler's folded stacks
  (``?format=collapsed|json``, ``?span=<name>`` filter) when the
  service was started with a profiler;
* ``POST /v1/score``         — ``{"model": ..., "row": {...}}`` → one
  probability (concurrent calls micro-batch inside the engine);
* ``POST /v1/score/batch``   — ``{"model": ..., "rows": [...]}`` → a
  probability per row, scored in shared DataTable passes.

One handler thread per connection (ThreadingHTTPServer) feeds the
engines' micro-batch queues, which is where the concurrency pays off:
N in-flight requests become ~N/max_batch model passes.  A lone request
is scored at once; ``max_wait_ms`` only caps how long a pass waits for
callers it expects, it is not a delay every request pays.

Observability: every request runs under an ``http.request`` span of
the service's tracer (spans from the handler thread and the
micro-batch worker reassemble into one trace, see
:mod:`repro.obs.trace`), the optional access log gets one JSON line
per completed request carrying that trace id, and metrics label
requests by a *fixed* route table — unknown paths share one
``"<METHOD> [unknown]"`` label so probe scans cannot explode the
metric cardinality.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError, ServingError
from repro.obs.accesslog import AccessLog
from repro.obs.burnrate import SLOBurnEngine
from repro.obs.profile import SamplingProfiler
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.trace import Tracer, use_tracer
from repro.serving.engine import ScoringEngine, last_queue_wait_ms
from repro.serving.metrics import RequestMetrics
from repro.serving.registry import ScorerRegistry

__all__ = ["ScoringService", "TextResponse", "build_info"]

logger = logging.getLogger("repro.serving.http")

#: The known route table.  Metrics endpoint labels come only from this
#: set — any other path is labelled ``"<METHOD> [unknown]"`` so a
#: scanner hitting a million distinct 404 paths produces one metric
#: series, not a million.
_GET_ROUTES = (
    "/healthz", "/models", "/metrics", "/debug/profile",
    "/v1/route/towns",
)
_POST_ROUTES = (
    "/v1/score",
    "/v1/score/batch",
    "/v1/route/score",
    "/v1/route/safest",
)

#: error_type fallbacks for statuses whose handler returns an error
#: payload without raising (so no exception class is available).
_STATUS_ERROR_TYPES = {404: "NotFound", 413: "BodyTooLarge"}


def build_info() -> dict[str, str]:
    """The build-identity label set behind ``repro_build_info``.

    Everything a scrape needs to attribute numbers to a build: package
    version, Python and numpy versions, and whether the native tree
    kernel is active (its absence alone explains a large latency
    shift).
    """
    import platform

    import numpy

    from repro import __version__
    from repro.mining.tree.kernel import native_kernel_status

    return {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_kernel": native_kernel_status(),
    }


def _jsonable(value):
    """JSON-safe copy: non-finite floats become null (JSON has no NaN)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class TextResponse:
    """A plain-text response payload (e.g. the Prometheus exposition).

    Handlers return it in place of a JSON dict when the body must ship
    verbatim with a specific Content-Type.
    """

    __slots__ = ("text", "content_type")

    def __init__(
        self, text: str, content_type: str = "text/plain; charset=utf-8"
    ):
        self.text = text
        self.content_type = content_type


class ScoringService:
    """The serving process: registry + engines + HTTP front-end.

    Parameters
    ----------
    model_dir:
        Directory of saved scorer artefacts (or a ready-made
        :class:`ScorerRegistry`).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    max_batch / max_wait_ms / cache_size:
        Engine tuning, applied to every model's engine: the rows cap
        per pass, the cap on a pass's wait for more callers, and the
        LRU capacity (see :class:`~repro.serving.engine.ScoringEngine`).
    cutoff:
        Default probability cutoff for the ``crash_prone`` flag.
    max_body_bytes:
        Request bodies above this size are refused with HTTP 413
        before a byte is read; ``0`` disables the limit.
    tracer:
        The service's :class:`~repro.obs.trace.Tracer`.  Every request
        runs under an ``http.request`` span of this tracer and the
        engines record their batch spans into it.  ``None`` (default)
        installs a disabled tracer — zero-cost until the CLI passes a
        real one (``serve --trace-out``).
    access_log:
        Structured JSON request log: an :class:`~repro.obs.accesslog.
        AccessLog`, a path, or ``"-"`` for stdout.  A path/``"-"`` is
        opened here and closed by :meth:`close`; ``None`` disables
        logging.
    route_planner:
        A :class:`~repro.routing.planner.RoutePlanner` enabling the
        ``/v1/route/*`` endpoints (``GET /v1/route/towns``,
        ``POST /v1/route/score``, ``POST /v1/route/safest``).  ``None``
        (default) serves 404 with an enablement hint on those routes.
    burn_engine:
        An :class:`~repro.obs.burnrate.SLOBurnEngine` fed every
        completed request; its burn-rate/budget gauges join both
        ``/metrics`` formats.  ``None`` (default) disables SLO
        tracking.
    profiler:
        A :class:`~repro.obs.profile.SamplingProfiler` (not started
        here — the CLI owns its lifecycle) backing ``GET
        /debug/profile`` and the ``repro_profile_*`` series.  ``None``
        (default) serves 404 on the debug route.
    """

    def __init__(
        self,
        model_dir: str | Path | ScorerRegistry,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
        cache_size: int = 1024,
        cutoff: float = 0.5,
        max_body_bytes: int = 8 * 1024 * 1024,
        tracer: Tracer | None = None,
        access_log: AccessLog | str | Path | None = None,
        route_planner=None,
        burn_engine: SLOBurnEngine | None = None,
        profiler: SamplingProfiler | None = None,
    ):
        if max_body_bytes < 0:
            raise ServingError(
                f"max_body_bytes must be >= 0, got {max_body_bytes}"
            )
        if isinstance(model_dir, ScorerRegistry):
            self.registry = model_dir
        else:
            self.registry = ScorerRegistry(model_dir)
        self.registry.refresh()
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.cache_size = cache_size
        self.cutoff = cutoff
        self.max_body_bytes = max_body_bytes
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._owns_access_log = access_log is not None and not isinstance(
            access_log, AccessLog
        )
        self.access_log = (
            AccessLog(access_log)
            if self._owns_access_log
            else (access_log if isinstance(access_log, AccessLog) else None)
        )
        self.route_planner = route_planner
        self.burn_engine = burn_engine
        self.profiler = profiler
        self.build_info = build_info()
        self.metrics = RequestMetrics()
        self._engines: dict[str, ScoringEngine] = {}
        self._engines_lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        # Graceful-drain bookkeeping: in-flight request count guarded
        # by a condition close() waits on, so shutdown never cuts a
        # response off mid-write.
        self._inflight = 0
        self._drain_cond = threading.Condition()

    # -- engines -----------------------------------------------------------
    def engine(self, name: str) -> ScoringEngine:
        """The engine serving ``name``, rebuilt when its artefact changed.

        Engines are keyed by the artefact checksum, so a hot-reloaded
        model atomically swaps in a fresh engine (and empty cache)
        while the stale one is drained and closed.
        """
        entry = self.registry.get(name)
        key = f"{entry.key}:{entry.checksum}"
        with self._engines_lock:
            stale = None
            engine = self._engines.get(name)
            if engine is not None and engine.name != key:
                stale, engine = engine, None
            if engine is None:
                engine = ScoringEngine(
                    entry.scorer,
                    name=key,
                    max_batch=self.max_batch,
                    max_wait_ms=self.max_wait_ms,
                    cache_size=self.cache_size,
                    tracer=self.tracer,
                )
                self._engines[name] = engine
        if stale is not None:
            stale.close()
        return engine

    def _resolve_model(self, requested: object) -> str:
        if requested is not None:
            if not isinstance(requested, str):
                raise ServingError(
                    f"'model' must be a string, got {requested!r}"
                )
            return requested
        names = self.registry.names()
        if len(names) == 1:
            return names[0]
        available = ", ".join(names) or "none"
        raise ServingError(
            f"request must name a 'model' (available: {available})"
        )

    def _cutoff_from(self, body: dict) -> float:
        cutoff = body.get("cutoff", self.cutoff)
        if isinstance(cutoff, bool) or not isinstance(cutoff, (int, float)):
            raise ServingError(f"'cutoff' must be a number, got {cutoff!r}")
        if not 0.0 <= cutoff <= 1.0:
            raise ServingError(f"'cutoff' must be in [0, 1], got {cutoff}")
        return float(cutoff)

    @staticmethod
    def _route_town(body: dict, key: str) -> object:
        alias = "origin" if key == "from" else "destination"
        value = body.get(key, body.get(alias))
        if value is None:
            raise ServingError(
                "route request must carry 'from' and 'to' town names "
                "(or a 'path' list of towns for /v1/route/score)"
            )
        return value

    def endpoint_label(self, method: str, path: str) -> str:
        """The metrics label for a request — fixed-cardinality.

        Known routes label as ``"<METHOD> <path>"``; everything else —
        including every probing 404 — shares ``"<METHOD> [unknown]"``.
        """
        routes = _GET_ROUTES if method == "GET" else _POST_ROUTES
        if path in routes:
            return f"{method} {path}"
        return f"{method} [unknown]"

    # -- request handling --------------------------------------------------
    def handle_get(
        self, path: str, query: dict[str, str] | None = None
    ) -> tuple[int, dict | TextResponse]:
        query = query or {}
        if path == "/healthz":
            return 200, {
                "status": "ok",
                "models": self.registry.names(),
                "uptime_seconds": time.monotonic() - self._started_at,
                "requests": self.metrics.request_count(),
            }
        if path == "/models":
            self.registry.refresh()
            return 200, {
                "model_dir": str(self.registry.model_dir),
                "models": [e.describe() for e in self.registry.entries()],
            }
        if path == "/metrics":
            with self._engines_lock:
                engines = dict(self._engines)
            stats = {
                name: engine.stats() for name, engine in engines.items()
            }
            routing = (
                self.route_planner.stats()
                if self.route_planner is not None
                else None
            )
            slo = (
                self.burn_engine.snapshot()
                if self.burn_engine is not None
                else None
            )
            profile_stats = (
                self.profiler.stats() if self.profiler is not None else None
            )
            fmt = query.get("format", "json")
            if fmt == "prometheus":
                text = render_prometheus(
                    self.metrics.prometheus_snapshot(),
                    engines=stats,
                    uptime_seconds=time.monotonic() - self._started_at,
                    n_models=len(self.registry.names()),
                    registry=self.registry.stats(),
                    routing=routing,
                    windows=self.metrics.windowed_summary(),
                    slo=slo,
                    build=self.build_info,
                    profile=profile_stats,
                )
                return 200, TextResponse(text, content_type=CONTENT_TYPE)
            if fmt != "json":
                raise ServingError(
                    f"unknown metrics format {fmt!r} "
                    f"(expected 'json' or 'prometheus')"
                )
            payload = {
                "endpoints": self.metrics.summary(),
                "engines": stats,
                "registry": self.registry.stats(),
                "windows": self.metrics.windowed_summary(),
                "build": self.build_info,
            }
            if routing is not None:
                payload["routing"] = routing
            if slo is not None:
                payload["slo"] = slo
            if profile_stats is not None:
                payload["profile"] = profile_stats
            return 200, payload
        if path == "/debug/profile":
            if self.profiler is None:
                return 404, {
                    "error": "profiling is not enabled on this service "
                    "(start it with `repro-study serve --profile`)"
                }
            span_filter = query.get("span") or None
            fmt = query.get("format", "collapsed")
            if fmt == "collapsed":
                return 200, TextResponse(
                    self.profiler.render_collapsed(span_filter) + "\n"
                )
            if fmt != "json":
                raise ServingError(
                    f"unknown profile format {fmt!r} "
                    f"(expected 'collapsed' or 'json')"
                )
            return 200, self.profiler.to_dict(span_filter)
        if path == "/v1/route/towns":
            if self.route_planner is None:
                return 404, {
                    "error": "routing is not enabled on this service "
                    "(start it with a route planner, e.g. "
                    "`repro-study serve --routes`)"
                }
            return 200, {"towns": self.route_planner.towns()}
        return 404, {"error": f"no route for GET {path}"}

    def handle_post(self, path: str, body: dict) -> tuple[int, dict]:
        if path == "/v1/score":
            name = self._resolve_model(body.get("model"))
            row = body.get("row", body.get("segment"))
            if row is None:
                raise ServingError("request body must carry a 'row' object")
            cutoff = self._cutoff_from(body)
            engine = self.engine(name)
            probability = engine.score_one(row)
            return 200, {
                "model": name,
                "threshold": engine.scorer.threshold,
                "probability": probability,
                "crash_prone": probability >= cutoff,
            }
        if path == "/v1/score/batch":
            name = self._resolve_model(body.get("model"))
            rows = body.get("rows")
            cutoff = self._cutoff_from(body)
            engine = self.engine(name)
            probabilities = engine.score_many(rows)
            return 200, {
                "model": name,
                "threshold": engine.scorer.threshold,
                "count": len(probabilities),
                "results": [
                    {"probability": p, "crash_prone": p >= cutoff}
                    for p in probabilities
                ],
            }
        if path in ("/v1/route/score", "/v1/route/safest"):
            planner = self.route_planner
            if planner is None:
                return 404, {
                    "error": "routing is not enabled on this service "
                    "(start it with a route planner, e.g. "
                    "`repro-study serve --routes`)"
                }
            name = self._resolve_model(body.get("model"))
            entry = self.registry.get(name)
            alpha = body.get("alpha")
            if path == "/v1/route/safest":
                result = planner.plan_safest(
                    entry.scorer,
                    entry.checksum,
                    self._route_town(body, "from"),
                    self._route_town(body, "to"),
                    alpha=alpha,
                    k=body.get("k"),
                    model=name,
                )
            elif "path" in body:
                result = planner.score_path(
                    entry.scorer,
                    entry.checksum,
                    body["path"],
                    alpha=alpha,
                    model=name,
                )
            else:
                result = planner.plan_pair(
                    entry.scorer,
                    entry.checksum,
                    self._route_town(body, "from"),
                    self._route_town(body, "to"),
                    alpha=alpha,
                    model=name,
                )
            return 200, {
                "model": name,
                "checksum": entry.checksum,
                **result,
            }
        return 404, {"error": f"no route for POST {path}"}

    # -- lifecycle ---------------------------------------------------------
    def _make_server(self) -> ThreadingHTTPServer:
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Buffer each response into one write and disable Nagle:
            # the default unbuffered wfile emits every header line as
            # its own TCP segment, which interacts with client delayed
            # ACKs into a ~40 ms stall per request.
            wbufsize = -1
            disable_nagle_algorithm = True

            def log_message(self, *args) -> None:  # quiet by default
                pass

            def handle_one_request(self) -> None:
                # _dispatch handles resets inside a request.  One that
                # escapes to here came while reading the next request
                # line or headers: a keep-alive client hung up between
                # requests.  That is the end of the connection, not a
                # request, so nothing is counted and socketserver's
                # handle_error never prints a traceback for it.
                try:
                    super().handle_one_request()
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True

            def _respond(
                self,
                status: int,
                payload: dict | TextResponse,
                trace_id: str | None = None,
            ) -> int:
                if isinstance(payload, TextResponse):
                    data = payload.text.encode("utf-8")
                    content_type = payload.content_type
                else:
                    data = json.dumps(_jsonable(payload)).encode("utf-8")
                    content_type = "application/json"
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                if trace_id is not None:
                    self.send_header("X-Repro-Trace-Id", trace_id)
                self.end_headers()
                self.wfile.write(data)
                # Flush here, not in handle_one_request: the buffered
                # wfile surfaces a dead client (BrokenPipe/reset) at
                # flush time, and only inside _dispatch's try block can
                # that be counted as a client_abort.
                self.wfile.flush()
                return len(data)

            def _handle(
                self, method: str, path: str, query: dict[str, str]
            ) -> tuple[int, dict | TextResponse | None, str | None]:
                """Route one request; returns (status, payload,
                error_type) and never raises.  A ``None`` payload
                means the client is gone — nothing to respond to."""
                try:
                    if method == "GET":
                        status, payload = service.handle_get(path, query)
                    else:
                        length = int(self.headers.get("Content-Length") or 0)
                        limit = service.max_body_bytes
                        if limit and length > limit:
                            # Refuse before reading; the unread body
                            # would desynchronise keep-alive, so the
                            # connection is closed after responding.
                            self.close_connection = True
                            return 413, {
                                "error": (
                                    f"request body of {length} bytes "
                                    f"exceeds the {limit}-byte limit"
                                ),
                            }, "BodyTooLarge"
                        try:
                            raw = self.rfile.read(length) if length else b""
                        except (
                            BrokenPipeError,
                            ConnectionResetError,
                        ):
                            # The client hung up mid-upload.  Status
                            # 499 (nginx's "client closed request")
                            # labels it; payload None skips the
                            # response entirely.
                            self.close_connection = True
                            return 499, None, "client_abort"
                        try:
                            body = json.loads(raw) if raw else {}
                        except json.JSONDecodeError as exc:
                            raise ServingError(
                                f"request body is not valid JSON: {exc}"
                            ) from exc
                        if not isinstance(body, dict):
                            raise ServingError(
                                "request body must be a JSON object"
                            )
                        status, payload = service.handle_post(path, body)
                except ReproError as exc:
                    return 400, {"error": str(exc)}, type(exc).__name__
                except Exception as exc:  # pragma: no cover - defensive
                    return (
                        500,
                        {"error": f"internal error: {exc}"},
                        type(exc).__name__,
                    )
                error_type = (
                    _STATUS_ERROR_TYPES.get(status, f"HTTP{status}")
                    if status >= 400
                    else None
                )
                return status, payload, error_type

            def _dispatch(self, method: str) -> None:
                with service._drain_cond:
                    service._inflight += 1
                try:
                    self._dispatch_inner(method)
                finally:
                    with service._drain_cond:
                        service._inflight -= 1
                        service._drain_cond.notify_all()

            def _dispatch_inner(self, method: str) -> None:
                parsed = urlsplit(self.path)
                path = parsed.path
                query = {
                    key: values[0]
                    for key, values in parse_qs(parsed.query).items()
                }
                endpoint = service.endpoint_label(method, path)
                tracer = service.tracer
                trace_id = None
                # Cleared per request so a handler that never queues
                # (GET routes, route queries) cannot inherit the previous
                # request's queue wait from this thread's context.
                queue_wait_token = last_queue_wait_ms.set(None)
                start = time.perf_counter()
                with use_tracer(tracer), tracer.span(
                    "http.request", method=method, path=path
                ) as request_span:
                    if request_span is not None:
                        trace_id = request_span.trace_id
                    status, payload, error_type = self._handle(
                        method, path, query
                    )
                    queue_wait = last_queue_wait_ms.get()
                    if request_span is not None:
                        if queue_wait is not None:
                            request_span.attrs["queue_wait_ms"] = queue_wait
                        if error_type is not None:
                            request_span.status = "error"
                            request_span.error_type = error_type
                elapsed = time.perf_counter() - start
                last_queue_wait_ms.reset(queue_wait_token)
                service.metrics.observe(
                    endpoint,
                    elapsed,
                    error=status >= 400,
                    error_type=error_type,
                    trace_id=trace_id,
                )
                if service.burn_engine is not None:
                    service.burn_engine.observe(
                        endpoint, elapsed, error=status >= 400
                    )
                n_bytes = 0
                if payload is not None:
                    try:
                        n_bytes = self._respond(
                            status, payload, trace_id=trace_id
                        )
                    except (
                        BrokenPipeError,
                        ConnectionResetError,
                    ):
                        # The client went away between sending the
                        # request and reading the response — routine
                        # under load (timeouts, impatient callers),
                        # so it gets its own typed counter and a
                        # debug line, not a stack trace.
                        error_type = error_type or "client_abort"
                        service.metrics.record_error(
                            endpoint, "client_abort"
                        )
                        logger.debug(
                            "client aborted while reading %s response "
                            "for %s",
                            status,
                            endpoint,
                        )
                        self.close_connection = True
                    except Exception as exc:
                        # The request was already counted; losing the
                        # response must not lose the error.
                        # record_error keeps the failure visible in
                        # /metrics (a second observe() would
                        # double-count the request), the connection is
                        # dropped, and the exception stops here —
                        # re-raising inside the handler thread would
                        # only vanish into ThreadingHTTPServer.
                        error_type = error_type or type(exc).__name__
                        service.metrics.record_error(
                            endpoint, type(exc).__name__
                        )
                        logger.exception(
                            "failed to write %s response for %s",
                            status,
                            endpoint,
                        )
                        self.close_connection = True
                if service.access_log is not None:
                    service.access_log.write(
                        method=method,
                        path=path,
                        status=status,
                        n_bytes=n_bytes,
                        duration_ms=1000.0 * elapsed,
                        trace_id=trace_id,
                        error_type=error_type,
                        queue_wait_ms=queue_wait,
                    )

            def do_GET(self) -> None:
                self._dispatch("GET")

            def do_POST(self) -> None:
                self._dispatch("POST")

        class Server(ThreadingHTTPServer):
            daemon_threads = True
            # socketserver's default listen backlog is 5.  A burst of
            # concurrent clients (the 64-thread stress test opens every
            # connection at once) overflows it; the kernel then drops
            # the final handshake ACK and resets the client mid-read.
            request_queue_size = 128

        server = Server((self.host, self.port), Handler)
        self.port = server.server_address[1]
        return server

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ScoringService":
        """Serve on a background thread (tests, benchmarks)."""
        if self._server is not None:
            raise ServingError("service is already running")
        self._server = self._make_server()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="scoring-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        if self._server is not None:
            raise ServingError("service is already running")
        self._server = self._make_server()
        self._server.serve_forever()

    def close(self, drain_timeout: float = 5.0) -> None:
        """Stop serving, draining in-flight requests first.

        ``shutdown()`` only stops *accepting* connections; requests
        already inside handler threads keep running.  Closing the
        engines under them would fail every in-flight response, so
        close() waits (up to ``drain_timeout`` seconds) for the
        in-flight count to reach zero before tearing anything down.
        """
        if self._server is not None:
            self._server.shutdown()
            with self._drain_cond:
                drained = self._drain_cond.wait_for(
                    lambda: self._inflight == 0, timeout=drain_timeout
                )
            if not drained:
                logger.warning(
                    "drain timeout after %.1fs with %d request(s) "
                    "in flight; closing anyway",
                    drain_timeout,
                    self._inflight,
                )
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._engines_lock:
            engines, self._engines = dict(self._engines), {}
        for engine in engines.values():
            engine.close()
        if self.access_log is not None and self._owns_access_log:
            self.access_log.close()

    def __enter__(self) -> "ScoringService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
