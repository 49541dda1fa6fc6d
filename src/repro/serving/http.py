"""Concurrent JSON-over-HTTP scoring service (stdlib only).

:class:`ScoringService` wires a :class:`~repro.serving.registry.ScorerRegistry`
and per-model :class:`~repro.serving.engine.ScoringEngine` instances
behind a :class:`socketserver.ThreadingTCPServer` speaking HTTP/1.1:

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
  probability per row, scored in shared micro-batch passes.

One handler thread per connection.  The HTTP framing is this module's
own and covers exactly what the service speaks: :func:`read_request`
reads a request line and its header fields under fixed caps, a body
comes by ``Content-Length`` only, and each response goes out as one
``bytes`` object in one ``sendall``.  Every socket read and write runs
under the kernel-side deadline :data:`READ_DEADLINE_S`, so an idle or
stalled connection releases its thread.

Each handler submits its request to the model's engine and either
scores the pass itself, when no pass is running, or waits for the
handler thread that leads the pass holding its rows; that is where the
concurrency pays off: N in-flight requests become ~N/max_batch model
passes.  A lone request is scored at once on its own handler thread;
``max_wait_ms`` only caps how long a pass waits for callers it
expects, it is not a delay every request pays.

Observability: every request runs under an ``http.request`` span of
the service's tracer (a pass's spans parent onto the request that
opened it, whichever handler thread ran it, and reassemble into one
trace, see :mod:`repro.obs.trace`), the optional access log gets one JSON line
per completed request carrying that trace id, and metrics label
requests by a *fixed* route table — unknown paths share one
``"<METHOD> [unknown]"`` label so probe scans cannot explode the
metric cardinality.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import re
import socket
import socketserver
import struct
import sys
import threading
import time
from http import HTTPStatus
from io import BufferedIOBase
from pathlib import Path
from typing import NamedTuple
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

#: Framing caps, in bytes and lines.  A longer request line is a 414.
#: Header fields past MAX_HEADER_BYTES in all (each line's CRLF and the
#: blank line that ends them included), or a head of more than
#: MAX_HEADER_LINES lines counting that blank line (the stdlib's count),
#: are a 431.
MAX_LINE = 8 * 1024
MAX_HEADER_BYTES = 16 * 1024
MAX_HEADER_LINES = 100

#: Seconds one socket read or write may wait before the connection is
#: dropped: a kernel-side SO_RCVTIMEO/SO_SNDTIMEO on the blocking
#: socket, so no call pays for it (``settimeout`` would poll before
#: every recv and send).  It bounds idle keep-alive connections and
#: stalled uploads; a client trickling a byte per deadline still holds
#: its thread.
READ_DEADLINE_S = 30.0

#: A header field name: visible ASCII, the bytes the stdlib's header
#: parser accepts before the colon.  Whitespace before the colon or at
#: the start of the line (obs-fold) fails it.
_FIELD_NAME = re.compile(r"[!-~]+")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: What a dead or stalled client raises on a socket call: a reset or
#: broken pipe, or BlockingIOError from a send past the deadline.
_CLIENT_GONE = (ConnectionError, BlockingIOError)
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


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


def _body_length(declared: str, cap: int) -> int | None:
    """The byte count a ``Content-Length`` value declares, or ``None``
    when it is over ``cap``.

    Only ASCII decimal digits are a length: a sign, an exponent or any
    other character raises :class:`ServingError`.  Digit counts are
    compared before ``int()``, which refuses strings past 4,300 digits,
    so an absurdly long value is only too large.
    """
    if not (declared.isascii() and declared.isdigit()):
        raise ServingError(
            "Content-Length must be a decimal byte count, "
            f"got {declared[:32]!r}"
        )
    digits = declared.lstrip("0") or "0"
    if len(digits) > len(str(cap)) or int(digits) > cap:
        return None
    return int(digits)


class FramingError(ServingError):
    """A request whose framing cannot be read; ``status`` is the answer.

    The connection is closed after answering, because where the next
    request starts is unknown.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class RequestHead(NamedTuple):
    """A request line and its header fields, as :func:`read_request`
    read them."""

    method: str
    #: The request target, a leading ``//`` collapsed to ``/``.
    target: str
    #: Lower-cased names; a repeated field keeps its first value.
    headers: dict[str, str]
    keep_alive: bool
    #: An HTTP/1.1 ``Expect: 100-continue``.
    expect_continue: bool


def _version_error(version: str) -> FramingError:
    """505 for a well-formed version of 2.0 or later, as the stdlib
    answers it; 400 for any other version but HTTP/1.0 and HTTP/1.1."""
    name, _, number = version.partition("/")
    major, dot, minor = number.partition(".")
    if (
        name == "HTTP"
        and dot
        and all(
            part.isascii() and part.isdigit() and len(part) <= 10
            for part in (major, minor)
        )
        and int(major) >= 2
    ):
        return FramingError(505, f"HTTP version {version} is not supported")
    return FramingError(400, f"bad request version {version[:32]!r}")


def read_request(rfile: BufferedIOBase) -> RequestHead | None:
    """Read one request line and its header fields from ``rfile``.

    The request line is ``METHOD SP target SP HTTP/1.x`` (words split on
    whitespace, as the stdlib does), HTTP/1.0 or HTTP/1.1 only; header
    fields are ``name: value`` lines.  Keep-alive follows the version
    and the ``Connection`` field, as in the stdlib.

    Returns ``None`` when the connection ends before a complete head:
    the client closed it or sent nothing for :data:`READ_DEADLINE_S`.
    Under ``SO_RCVTIMEO`` a timed-out read returns what it has instead
    of raising, so a line without its LF means either.  A blank request
    line ends the connection too, as in the stdlib.  Raises
    :class:`FramingError` for a head that cannot be framed: a malformed
    line (400), an unsupported version (400, or 505 from 2.0 on), the
    caps (414, 431), a header line that is not ``name: value`` or holds
    a CR or NUL (400), differing ``Content-Length`` values (400) and
    any ``Transfer-Encoding`` (501).
    """
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(414, f"request line longer than {MAX_LINE} bytes")
    if line[-1:] != b"\n":
        return None
    text = str(line, "iso-8859-1")
    words = text.split()
    if not words:
        return None
    if len(words) != 3:
        # The stdlib judges the version before the word count.
        if len(words) > 3 and words[-1] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _version_error(words[-1])
        raise FramingError(
            400, f"malformed request line {text.strip()[:64]!r}"
        )
    method, target, version = words
    if version == "HTTP/1.1":
        keep_alive = True
    elif version == "HTTP/1.0":
        keep_alive = False
    else:
        raise _version_error(version)
    headers: dict[str, str] = {}
    budget = MAX_HEADER_BYTES
    for _ in range(MAX_HEADER_LINES):
        line = rfile.readline(budget + 1)
        if len(line) > budget:
            raise FramingError(
                431, f"header fields longer than {MAX_HEADER_BYTES} bytes"
            )
        if line == b"\r\n" or line == b"\n":
            break
        if line[-1:] != b"\n":
            return None
        budget -= len(line)
        field = str(
            line[:-2] if line[-2:] == b"\r\n" else line[:-1], "iso-8859-1"
        )
        name, colon, value = field.partition(":")
        if (
            not colon
            or not _FIELD_NAME.fullmatch(name)
            or "\r" in field
            or "\0" in field
        ):
            raise FramingError(400, f"malformed header line {field[:64]!r}")
        key = name.lower()
        value = value.strip(" \t")
        if headers.setdefault(key, value) != value and key == "content-length":
            raise FramingError(400, "differing Content-Length values")
    else:
        raise FramingError(
            431, f"more than {MAX_HEADER_LINES - 1} header fields"
        )
    if "transfer-encoding" in headers:
        raise FramingError(
            501, "Transfer-Encoding is not supported; send a Content-Length"
        )
    connection = headers.get("connection", "").lower()
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True
    expect_continue = (
        version == "HTTP/1.1"
        and headers.get("expect", "").lower() == "100-continue"
    )
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    return RequestHead(method, target, headers, keep_alive, expect_continue)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` field value for a Unix second: RFC 9110's
    IMF-fixdate, as ``email.utils.formatdate(second, usegmt=True)``
    writes it.  Cached, so it is formatted at most once per second."""
    t = time.gmtime(second)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
        f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


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
        self._server: socketserver.ThreadingTCPServer | None = None
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
    def _make_server(self) -> socketserver.ThreadingTCPServer:
        service = self

        class Handler(socketserver.StreamRequestHandler):
            # Nagle would hold a response's segment for the client's
            # delayed ACK of the previous one: a ~40 ms stall.
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                seconds, fraction = divmod(READ_DEADLINE_S, 1.0)
                deadline = struct.pack(
                    "ll", int(seconds), int(fraction * 1_000_000)
                )
                for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, option, deadline
                    )

            def handle(self) -> None:
                self.close_connection = False
                while not self.close_connection:
                    try:
                        head = read_request(self.rfile)
                    except FramingError as exc:
                        self._refuse(exc.status, str(exc))
                        return
                    except _CLIENT_GONE:
                        # A keep-alive client hung up between requests:
                        # the end of the connection, not a request, so
                        # nothing is counted and socketserver's
                        # handle_error prints no traceback for it.
                        return
                    if head is None:
                        return
                    if head.method not in ("GET", "POST"):
                        self._refuse(
                            501, f"unsupported method {head.method!r}"
                        )
                        return
                    self.close_connection = not head.keep_alive
                    self._dispatch(head)

            def _refuse(self, status: int, message: str) -> None:
                """Answer a framing error once; the caller then closes."""
                self.close_connection = True
                try:
                    self._respond(status, {"error": message})
                except _CLIENT_GONE:
                    pass

            def _respond(
                self,
                status: int,
                payload: dict | TextResponse,
                trace_id: str | None = None,
            ) -> int:
                """Send one response in one ``sendall``; returns the
                body's byte count."""
                if isinstance(payload, TextResponse):
                    body = payload.text.encode("utf-8")
                    content_type = payload.content_type
                else:
                    body = json.dumps(_jsonable(payload)).encode("utf-8")
                    content_type = "application/json"
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
                    f"Date: {_http_date(int(time.time()))}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                )
                if trace_id is not None:
                    head += f"X-Repro-Trace-Id: {trace_id}\r\n"
                if self.close_connection:
                    head += "Connection: close\r\n"
                self.connection.sendall(
                    (head + "\r\n").encode("latin-1") + body
                )
                return len(body)

            def _handle(
                self, head: RequestHead, path: str, query: dict[str, str]
            ) -> tuple[int, dict | TextResponse | None, str | None]:
                """Route one request; returns (status, payload,
                error_type) and never raises.  A ``None`` payload
                means the client is gone — nothing to respond to."""
                try:
                    declared = head.headers.get("content-length") or "0"
                    # No limit still caps a read at sys.maxsize.
                    cap = service.max_body_bytes or sys.maxsize
                    # Refuse a malformed or over-limit length before
                    # reading; the unread body would desynchronise
                    # keep-alive, so the connection is closed after
                    # responding.
                    try:
                        length = _body_length(declared, cap)
                    except ServingError:
                        self.close_connection = True
                        raise
                    if length is None:
                        self.close_connection = True
                        shown = declared if len(declared) <= 24 else (
                            f"{declared[:21]}..."
                        )
                        return 413, {
                            "error": (
                                f"request body of {shown} bytes "
                                f"exceeds the {cap}-byte limit"
                            ),
                        }, "BodyTooLarge"
                    raw: bytes | None = b""
                    if length:
                        try:
                            if head.expect_continue:
                                self.connection.sendall(_CONTINUE)
                            raw = self.rfile.read(length)
                        except _CLIENT_GONE:
                            raw = None
                        if raw is None or len(raw) < length:
                            # The client hung up mid-upload, or sent
                            # nothing for READ_DEADLINE_S.  Status 499
                            # (nginx's "client closed request") labels
                            # it; payload None skips the response.
                            self.close_connection = True
                            return 499, None, "client_abort"
                    if head.method == "GET":
                        status, payload = service.handle_get(path, query)
                    else:
                        try:
                            body = json.loads(raw) if raw else {}
                        except ValueError as exc:
                            # A JSONDecodeError, or the plain ValueError
                            # int() raises past Python's digit limit.
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

            def _dispatch(self, head: RequestHead) -> None:
                with service._drain_cond:
                    service._inflight += 1
                try:
                    self._dispatch_inner(head)
                finally:
                    with service._drain_cond:
                        service._inflight -= 1
                        service._drain_cond.notify_all()

            def _dispatch_inner(self, head: RequestHead) -> None:
                method = head.method
                parsed = urlsplit(head.target)
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
                        head, path, query
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
                    except _CLIENT_GONE:
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
                        # only vanish into socketserver.
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

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True
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

    def bind(self) -> "ScoringService":
        """Bind the listening socket without serving yet.

        :attr:`port` is then the bound port (``port=0`` picks an
        ephemeral one), and connections wait in the listen backlog until
        :meth:`serve_forever` accepts them.  The CLI binds before it
        prints its ready lines, so a client that connects on them is
        never refused.
        """
        if self._server is not None:
            raise ServingError("service is already running")
        self._server = self._make_server()
        return self

    def start(self) -> "ScoringService":
        """Serve on a background thread (tests, benchmarks)."""
        self.bind()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="scoring-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path), binding first
        unless :meth:`bind` already has."""
        if self._server is None:
            self.bind()
        elif self._thread is not None:
            raise ServingError("service is already running")
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
