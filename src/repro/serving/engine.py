"""Request-level scoring on top of a registered scorer.

:class:`ScoringEngine` turns the batch-oriented
:class:`~repro.core.deployment.CrashPronenessScorer` into something a
request/response service can use:

* **validation and encoding** — one pass of the scorer's
  :class:`~repro.serving.encoder.RowEncoder` checks every request row
  against the input schema (missing columns, numbers where labels
  belong, and vice versa) and writes it straight into the compiled
  plan's input arrays before it gets near the model;
* **micro-batching** — each request is one queue entry, and a worker
  scores whole requests as *one* plan evaluation, amortising per-call
  overhead exactly the way the study amortises per-threshold work.
  The worker clocks itself: it takes every request already queued (up
  to ``max_batch`` rows, cutting a larger request into slices) and
  waits for more only while the pass holds fewer requests than the
  previous pass did.  A lone request is scored at once;
  ``max_wait_ms`` caps the wait, it is not a delay every request pays;
* **LRU result caching** — road segments re-score constantly with
  unchanged attributes, so results are cached by encoded row.

The engine is model-agnostic within the scorer contract: everything it
needs (input names, column kinds) comes from
``CrashPronenessScorer.input_schema()``, and its compiled plan from
``CrashPronenessScorer.scoring_plan()``.  A scorer whose tree does not
compile is scored through a :class:`~repro.datatable.DataTable` and
``scorer.score`` instead.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import cast

import numpy as np

from repro.core.deployment import CrashPronenessScorer
from repro.exceptions import ServingError
from repro.obs import trace as obs_trace
from repro.serving.bulk import build_request_table
from repro.serving.encoder import EncodedRows, RowEncoder, join

__all__ = ["LRUResultCache", "ScoringEngine", "last_queue_wait_ms"]

#: Milliseconds the calling request spent in the micro-batch queue
#: (until its last slice was taken), published per-context by
#: :meth:`ScoringEngine.score_one` / :meth:`ScoringEngine.score_many`
#: after their waits resolve.  The HTTP layer resets it per request and
#: copies it into the access log (``queue_wait_ms``).
last_queue_wait_ms: ContextVar[float | None] = ContextVar(
    "repro_engine_last_queue_wait_ms", default=None
)

_SHUTDOWN = object()


class LRUResultCache:
    """A thread-safe least-recently-used probability cache.

    ``max_size <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — the load benchmark uses that to measure the
    model path rather than dict lookups.
    """

    def __init__(self, max_size: int = 1024):
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[tuple, float] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: tuple) -> float | None:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value
            self.hits += 1
            return value

    def put(self, key: tuple, value: float) -> None:
        if self.max_size <= 0:
            return
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.max_size:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


class _Request:
    """One queued request: its encoded rows and the event its caller
    blocks on.

    The worker takes a request whole, or in slices when it holds more
    rows than fit in a pass; ``taken`` counts the rows handed to
    passes.  Slices are scored in order by the one worker, so the
    event is set when the last slice resolves, or when the request
    fails.
    ``trace_context`` is the submitting request's span context (None
    when nobody is tracing): the micro-batch worker thread runs in no
    request's context, so the link from a request to the pass that
    scored it must travel with the entry.  ``enqueued_at`` feeds the
    batch span's queue-wait attribute; ``dequeued_at`` is stamped by
    the worker each time a pass takes a slice, so the waiting caller
    can report its own queue wait after :meth:`wait` returns (the
    event set orders the write before the read).
    """

    __slots__ = (
        "rows", "encoded", "probabilities", "taken", "error",
        "enqueued_at", "dequeued_at", "trace_context", "_event",
    )

    def __init__(self, rows: list, encoded: EncodedRows, trace_context=None):
        self.rows = rows
        self.encoded = encoded
        self.probabilities: list[float] = [0.0] * len(rows)
        self.taken = 0
        self.error: Exception | None = None
        self.enqueued_at = time.monotonic()
        self.dequeued_at: float | None = None
        self.trace_context = trace_context
        self._event = threading.Event()

    def resolve(self, start: int, probabilities: list[float]) -> None:
        stop = start + len(probabilities)
        self.probabilities[start:stop] = probabilities
        if stop == len(self.rows):
            self._event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self._event.set()

    def wait(self, deadline: float | None) -> bool:
        """Block until resolved or until ``deadline`` (a
        :func:`time.monotonic` instant; ``None`` waits for ever).
        Returns False on timeout."""
        if deadline is None:
            return self._event.wait()
        return self._event.wait(max(0.0, deadline - time.monotonic()))

    def result(self) -> list[float]:
        if self.error is not None:
            raise self.error
        return self.probabilities


class ScoringEngine:
    """Validating, micro-batching, caching front-end to one scorer.

    Parameters
    ----------
    scorer:
        The loaded :class:`CrashPronenessScorer`.
    name:
        Label used in error messages and stats (the registry name).
    max_batch:
        Micro-batch size cap in rows; no pass holds more, and a request
        with more rows is scored in slices.
    max_wait_ms:
        Cap on how long the worker holds an open batch for more
        requests after taking its first.  It is a cap, not a delay
        every request pays: the worker waits only while the batch has
        fewer requests than the previous pass did, so a lone request is
        scored at once (see :meth:`_run`).
    cache_size:
        LRU capacity in rows; ``0`` disables the result cache.
    tracer:
        The :class:`~repro.obs.trace.Tracer` that receives the
        micro-batch worker's spans.  The worker thread runs in no
        request's context, so it cannot rely on the context-local
        tracer; ``None`` (default) falls back to the process-wide
        default tracer at batch time.
    """

    def __init__(
        self,
        scorer: CrashPronenessScorer,
        name: str = "scorer",
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
        cache_size: int = 1024,
        tracer: obs_trace.Tracer | None = None,
    ):
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.scorer = scorer
        self.name = name
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self._tracer = tracer
        self.schema = scorer.input_schema()
        self.encoder = RowEncoder(self.schema, name)
        #: The compiled plan the engine evaluates, or None when the
        #: scorer's tree does not compile (then passes go through
        #: ``scorer.score`` on a DataTable).
        self.plan = scorer.scoring_plan()
        if self.plan is not None and self.plan.inputs != self.encoder.inputs:
            raise ServingError(
                f"scorer {name!r}: compiled plan inputs do not match its "
                f"input schema"
            )
        self.cache = LRUResultCache(cache_size)
        # Micro-batch pass statistics: three exact counters, so the
        # engine's footprint does not grow with its uptime.
        self.batches = 0
        self.batched_rows = 0
        self.max_batch_observed = 0
        self.n_scored = 0
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"scoring-engine-{name}", daemon=True
        )
        self._worker.start()

    # -- validation --------------------------------------------------------
    def validate_row(self, row: object, index: int = 0) -> dict:
        """Check one request row against the scorer's input schema."""
        self.encoder.key(row, index)
        return cast(dict, row)

    def canonical_key(self, row: dict) -> tuple:
        """Cache key of a valid row: its encoded values in schema order
        (numbers as float, NaN as a sentinel, labels as their
        training-vocabulary codes)."""
        return self.encoder.key(row)

    # -- direct (already-batched) scoring ----------------------------------
    def score_rows(
        self, rows: list[dict], encoded: EncodedRows | None = None
    ) -> list[float]:
        """Score rows in one pass, consulting the LRU cache.

        ``encoded`` is ``rows`` as :meth:`RowEncoder.encode` left them,
        for a pass over requests encoded when they were submitted;
        without it the rows are validated and encoded here.
        """
        if encoded is None:
            encoded = self.encoder.encode(rows)
        with obs_trace.span(
            "engine.score_rows", rows=len(rows)
        ) as score_span:
            results: list[float | None] = [None] * len(rows)
            fresh: OrderedDict[tuple, list[int]] = OrderedDict()
            for i, key in enumerate(encoded.keys):
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached
                else:
                    fresh.setdefault(key, []).append(i)
            if score_span is not None:
                score_span.attrs["cache_hits"] = len(rows) - sum(
                    len(ix) for ix in fresh.values()
                )
                score_span.attrs["fresh_rows"] = len(fresh)
            if fresh:
                first = [indices[0] for indices in fresh.values()]
                probabilities = self._evaluate(
                    [rows[i] for i in first], encoded.take(first)
                )
                if len(probabilities) != len(fresh):
                    raise ServingError(
                        f"scorer {self.name!r} returned "
                        f"{len(probabilities)} probabilities for "
                        f"{len(fresh)} distinct rows"
                    )
                for (key, indices), value in zip(
                    fresh.items(), probabilities.tolist()
                ):
                    self.cache.put(key, value)
                    for i in indices:
                        results[i] = value
            # Every slot must be filled by the cache or the fresh pass.
            # The old ``[r for r in results if r is not None]`` filter
            # silently *dropped* unfilled slots, shifting every later
            # probability onto the wrong row; losing a row is an internal
            # invariant violation and must be loud.
            unfilled = [i for i, r in enumerate(results) if r is None]
            if unfilled:
                raise ServingError(
                    f"engine {self.name!r} lost row(s) {unfilled[:5]} of "
                    f"{len(rows)} in a scoring pass"
                )
            self.n_scored += len(rows)
            return results  # fully populated: list[float]

    def _evaluate(self, rows: list[dict], encoded: EncodedRows) -> np.ndarray:
        """One model pass over distinct fresh rows: P(crash prone) per
        row.  ``encoded`` holds the same rows encoded.  This is the
        seam the serving tests wrap to hold or slow a pass."""
        if self.plan is None:
            return self.scorer.score(build_request_table(rows, self.schema))
        return self.plan.evaluate(encoded.plan_rows())[0]

    # -- micro-batched scoring ---------------------------------------------
    def submit(self, *rows: dict) -> _Request:
        """Validate and encode one request's rows, then queue them as
        one entry for the micro-batch worker.

        Every row is checked before the request is queued, so an
        invalid row rejects the whole request and costs no model pass.
        """
        if self._closed:
            raise ServingError(f"engine {self.name!r} is closed")
        request = _Request(
            list(rows),
            self.encoder.encode(rows),
            trace_context=obs_trace.current_context(),
        )
        self._queue.put(request)
        return request

    def _wait(self, request: _Request, timeout: float | None) -> list[float]:
        """The request's probabilities, under one deadline for the call.

        ``timeout`` bounds the call's whole wait, however many passes
        its slices take.  Sets :data:`last_queue_wait_ms`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not request.wait(deadline):
            raise ServingError(f"scoring request timed out after {timeout}s")
        probabilities = request.result()
        if request.dequeued_at is not None:
            last_queue_wait_ms.set(
                round(1000.0 * (request.dequeued_at - request.enqueued_at), 3)
            )
        return probabilities

    def score_one(self, row: dict, timeout: float | None = 30.0) -> float:
        """Score a single row through the micro-batcher (blocking)."""
        return self._wait(self.submit(row), timeout)[0]

    def score_many(
        self, rows: list[dict], timeout: float | None = 30.0
    ) -> list[float]:
        """Score a request's row list through the micro-batcher.

        The rows are validated whole and queued as one request, which
        can share a pass with concurrent requests.  ``timeout`` is one
        deadline for all of the rows, however many passes they take.
        """
        if not isinstance(rows, list) or not rows:
            raise ServingError("rows must be a non-empty list of objects")
        with obs_trace.span("engine.score_many", rows=len(rows)):
            return self._wait(self.submit(*rows), timeout)

    # The old name of score_many, kept only because perfbench still
    # wraps this import path; delete it with that target (ROADMAP).
    score_batch = score_many

    def _run(self) -> None:
        """The micro-batch worker: one self-clocking loop.

        Block for the first request, then take every request already
        queued, up to ``max_batch`` rows; a request that does not fit
        is cut, and its remaining rows open the next pass.  Wait for
        more only while the pass holds fewer requests than the
        previous pass did, and never longer than ``max_wait_ms`` after
        taking the first.  A lone request is scored at once; N
        closed-loop callers that shared the last pass are scored as
        soon as the N-th arrives; when load drops, one pass waits out
        the cap and the next expects fewer.  Greedy dispatch alone
        (never wait) splits concurrent callers into many small passes
        and loses throughput under load.
        """
        stopping = False
        expected = 0
        carry: _Request | None = None
        while True:
            if carry is not None:
                item, carry = carry, None
            elif stopping:
                break
            else:
                item = self._queue.get()
                if item is _SHUTDOWN:
                    break
            slices: list[tuple[_Request, int, int]] = []
            size = self._take(item, slices, 0)
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            while size < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    remaining = deadline - time.monotonic()
                    if len(slices) >= expected or remaining <= 0:
                        break
                    try:
                        item = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                size = self._take(item, slices, size)
            last = slices[-1][0]
            if last.taken < len(last.rows):
                carry = last
            expected = len(slices)
            self.batches += 1
            self.batched_rows += size
            self.max_batch_observed = max(self.max_batch_observed, size)
            self._score_pass(slices, size)
            if carry is not None and carry.error is not None:
                carry = None

    def _take(
        self,
        request: _Request,
        slices: list[tuple[_Request, int, int]],
        size: int,
    ) -> int:
        """Add as many of ``request``'s untaken rows as fit; returns
        the pass's new size."""
        start = request.taken
        stop = min(len(request.rows), start + self.max_batch - size)
        request.taken = stop
        slices.append((request, start, stop))
        return size + stop - start

    def _score_pass(
        self, slices: list[tuple[_Request, int, int]], size: int
    ) -> None:
        """Score one assembled pass and resolve its requests.

        Runs in the worker thread, which has no request context: the
        batch span goes to the engine's own tracer and parents onto
        the *first* request's shipped context (the request that opened
        the pass), carrying the pass size in rows, that request's queue
        wait, the number of requests, and the span contexts of the
        other requests (``links``) so every request in the pass can
        find it.
        """
        tracer = (
            self._tracer
            if self._tracer is not None
            else obs_trace.get_default_tracer()
        )
        dequeued_at = time.monotonic()
        for request, _start, _stop in slices:
            request.dequeued_at = dequeued_at
        opener = slices[0][0]
        queue_wait = dequeued_at - opener.enqueued_at
        links: list[dict] = []
        if tracer.enabled:
            links = [
                {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
                for request, _start, _stop in slices[1:]
                if (ctx := request.trace_context) is not None
            ]
        with obs_trace.use_tracer(tracer), tracer.span(
            "engine.batch",
            parent=opener.trace_context,
            batch_size=size,
            queue_wait_ms=round(1000.0 * queue_wait, 3),
            callers=len(slices),
            links=links,
        ):
            rows = [
                row
                for request, start, stop in slices
                for row in request.rows[start:stop]
            ]
            encoded = join(
                [(request.encoded, start, stop) for request, start, stop in slices]
            )
            try:
                probabilities = self.score_rows(rows, encoded)
            except Exception as exc:  # pragma: no cover - defensive
                for request, _start, _stop in slices:
                    request.fail(exc)
            else:
                offset = 0
                for request, start, stop in slices:
                    width = stop - start
                    request.resolve(
                        start, probabilities[offset : offset + width]
                    )
                    offset += width

    # -- lifecycle & stats -------------------------------------------------
    def close(self) -> None:
        """Stop the worker; queued requests are drained first."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=10.0)

    def __enter__(self) -> "ScoringEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Counters for ``GET /metrics``: requests, batches, cache."""
        batches = self.batches
        return {
            "rows_scored": self.n_scored,
            "batches": batches,
            "max_batch_observed": self.max_batch_observed,
            "mean_batch_size": (
                self.batched_rows / batches if batches else float("nan")
            ),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_size": len(self.cache),
        }
