"""Request-level scoring on top of a registered scorer.

:class:`ScoringEngine` turns the batch-oriented
:class:`~repro.core.deployment.CrashPronenessScorer` into something a
request/response service can use:

* **validation and encoding** — one pass of the scorer's
  :class:`~repro.serving.encoder.RowEncoder` checks every request row
  against the input schema (missing columns, numbers where labels
  belong, and vice versa) and encodes it as one key tuple before it
  gets near the model; a pass lays the keys it evaluates out as the
  compiled plan's input arrays;
* **micro-batching** — each request is one entry in a pending queue,
  and whole requests are scored as *one* plan evaluation, amortising
  per-call overhead exactly the way the study amortises per-threshold
  work.  The engine owns no thread: a pass runs on the thread of the
  caller that holds the *lead*.  A caller that finds no pass running
  leads at once; one that arrives during a pass queues behind it and
  waits on its own event, and a leader whose own request is scored
  hands the lead to the oldest waiting caller.  A pass takes every
  request already queued (up to ``max_batch`` rows, cutting a larger
  request into slices) and waits for more only while it holds fewer
  requests than the previous pass did.  A lone request is scored at
  once on its caller's thread; ``max_wait_ms`` caps the wait, it is
  not a delay every request pays;
* **LRU result caching** — road segments re-score constantly with
  unchanged attributes, so results are cached by each row's key, the
  one encoded form a row has from :meth:`ScoringEngine.submit` to the
  plan.

The engine is model-agnostic within the scorer contract: everything it
needs (input names, column kinds) comes from
``CrashPronenessScorer.input_schema()``, and its compiled plan from
``CrashPronenessScorer.scoring_plan()``, the one way a loaded tree
scores.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextvars import ContextVar
from typing import cast

import numpy as np

from repro.core.deployment import CrashPronenessScorer
from repro.exceptions import ServingError
from repro.obs import trace as obs_trace
from repro.serving.encoder import RowEncoder

__all__ = ["LRUResultCache", "ScoringEngine", "last_queue_wait_ms"]

#: Milliseconds the calling request spent in the micro-batch queue
#: (until a pass took its last slice), published per-context by
#: :meth:`ScoringEngine.score_one` / :meth:`ScoringEngine.score_many`
#: after their waits resolve.  The HTTP layer resets it per request and
#: copies it into the access log (``queue_wait_ms``).
last_queue_wait_ms: ContextVar[float | None] = ContextVar(
    "repro_engine_last_queue_wait_ms", default=None
)


class LRUResultCache:
    """A thread-safe least-recently-used probability cache.

    ``max_size <= 0`` disables caching entirely (every lookup misses,
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

    def lookup(self, keys: list[tuple]) -> list[float | None]:
        """:meth:`get` for every key.  A disabled cache counts every key
        a miss in one locked add and takes no lock per key."""
        if self.max_size > 0:
            return [self.get(key) for key in keys]
        with self._lock:
            self.misses += len(keys)
        misses: list[float | None] = [None] * len(keys)
        return misses

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
    """One queued request: its rows, their keys and its caller's state.

    A pass takes a request whole, or in slices when it holds more rows
    than fit; ``taken`` counts the rows handed to passes.  Passes run
    one at a time, so slices resolve in order: ``probabilities`` grows
    by one slice per pass, and ``done`` is set when the last slice
    resolves or the request fails.  ``lead`` is set while the caller
    holds the lead.  ``event`` is None for a caller that leads at once;
    a caller that queues behind a pass blocks on it until its request
    is done or the lead is handed to it.
    ``trace_context`` is the submitting request's span context (None
    when nobody is tracing): the pass that scores a request may run on
    another caller's thread, so the link from a request to its pass
    travels with the entry.  ``enqueued_at`` feeds the batch span's
    queue-wait attribute; ``dequeued_at`` is stamped each time a pass
    takes a slice, so the caller can report its own queue wait.
    """

    __slots__ = (
        "rows", "keys", "probabilities", "taken", "done", "error",
        "lead", "event", "enqueued_at", "dequeued_at", "trace_context",
    )

    def __init__(self, rows: list, keys: list[tuple], trace_context=None):
        self.rows = rows
        self.keys = keys
        self.probabilities: list[float] = []
        self.taken = 0
        self.done = False
        self.error: Exception | None = None
        self.lead = False
        self.event: threading.Event | None = None
        self.enqueued_at = time.monotonic()
        self.dequeued_at: float | None = None
        self.trace_context = trace_context

    def resolve(self, probabilities: list[float]) -> None:
        """Record the next slice's probabilities."""
        self.probabilities += probabilities
        if len(self.probabilities) == len(self.rows):
            self.done = True
            self.wake()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.done = True
        self.wake()

    def wake(self) -> None:
        """Wake a queued caller: its request is done or it now leads."""
        if self.event is not None:
            self.event.set()

    def wait(self, deadline: float | None) -> bool:
        """Block a queued caller until it is woken or until
        ``deadline`` (a :func:`time.monotonic` instant; ``None`` waits
        for ever).  Returns False on timeout."""
        event = cast(threading.Event, self.event)
        if deadline is None:
            return event.wait()
        return event.wait(max(0.0, deadline - time.monotonic()))

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
        Cap on how long a pass holds an open batch for more requests
        after taking its first.  It is a cap, not a delay every request
        pays: a pass waits only while it has fewer requests than the
        previous pass did, so a lone request is scored at once (see
        :meth:`_run_pass`).
    cache_size:
        LRU capacity in rows; ``0`` disables the result cache.
    tracer:
        The :class:`~repro.obs.trace.Tracer` that receives the batch
        spans.  A pass runs on whichever caller holds the lead, whose
        context-local tracer may be another one; ``None`` (default)
        falls back to the process-wide default tracer at batch time.

    The engine starts no thread.  One lock guards the pending queue,
    the lead flag and the pass statistics, and is never held across a
    pass; a leader gathering callers waits on its condition.
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
        #: The compiled plan every pass evaluates.
        self.plan = scorer.scoring_plan()
        if self.plan.inputs != self.encoder.inputs:
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
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._pending: deque[_Request] = deque()
        self._leading = False
        self._expected = 0
        self._closed = False

    # -- validation --------------------------------------------------------
    def validate_row(self, row: object, index: int = 0) -> dict:
        """Check one request row against the scorer's input schema."""
        self.encoder.key(row, index)
        return cast(dict, row)

    # -- direct (already-batched) scoring ----------------------------------
    def score_rows(
        self, rows: list[dict], encoded: list[tuple] | None = None
    ) -> list[float]:
        """Score rows in one pass, consulting the LRU cache.

        ``encoded`` is the rows' keys as :meth:`RowEncoder.encode`
        returned them, for a pass over requests encoded when they were
        submitted; without it the rows are validated and encoded here.
        Every distinct key the cache misses is evaluated once.
        """
        keys = self.encoder.encode(rows) if encoded is None else encoded
        with obs_trace.span(
            "engine.score_rows", rows=len(rows)
        ) as score_span:
            cached = self.cache.lookup(keys)
            misses = dict.fromkeys(
                key for key, hit in zip(keys, cached) if hit is None
            )
            if score_span is not None:
                score_span.attrs["cache_hits"] = len(rows) - cached.count(None)
                score_span.attrs["fresh_rows"] = len(misses)
            scored: dict[tuple, float] = {}
            if misses:
                probabilities = self._evaluate(list(misses))
                if len(probabilities) != len(misses):
                    raise ServingError(
                        f"scorer {self.name!r} returned "
                        f"{len(probabilities)} probabilities for "
                        f"{len(misses)} distinct rows"
                    )
                scored = dict(zip(misses, probabilities.tolist()))
                for key, value in scored.items():
                    self.cache.put(key, value)
            self.n_scored += len(rows)
            return [
                scored[key] if hit is None else hit
                for key, hit in zip(keys, cached)
            ]

    def _evaluate(self, keys: list[tuple]) -> np.ndarray:
        """One model pass over distinct fresh keys: P(crash prone) per
        key.  This is the seam the serving tests wrap to hold or slow
        a pass."""
        return self.plan.evaluate(self.encoder.plan_rows(keys))[0]

    # -- micro-batched scoring ---------------------------------------------
    def submit(self, *rows: dict) -> _Request:
        """Validate and encode one request's rows, then queue them as
        one entry.

        Every row is checked before the request is queued, so an
        invalid row rejects the whole request and costs no model pass.
        A caller that finds no pass running takes the lead; one that
        queues behind a pass gets an event to wait on.  Either way the
        request must go on to :meth:`_wait`, which scores it or waits
        for it.
        """
        if self._closed:
            raise ServingError(f"engine {self.name!r} is closed")
        request = _Request(
            list(rows),
            self.encoder.encode(rows),
            trace_context=obs_trace.current_context(),
        )
        with self._lock:
            if self._leading:
                request.event = threading.Event()
                self._arrived.notify()
            else:
                self._leading = request.lead = True
            self._pending.append(request)
        return request

    def _wait(self, request: _Request, timeout: float | None) -> list[float]:
        """The request's probabilities, under one deadline for the call.

        While the caller holds the lead it runs passes on its own
        thread until its request is done, checking ``timeout`` between
        passes, never inside one; a queued caller blocks until its
        request is done or the lead is handed to it.  ``timeout``
        bounds the call's whole wait, however many passes its slices
        take.  A caller that leaves early (timed out, or interrupted)
        withdraws its untaken rows, and every leader passes the lead on
        as it leaves, so queued work never waits without a leader.
        Sets :data:`last_queue_wait_ms`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while not request.done:
                if request.lead:
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    self._run_pass()
                elif not request.wait(deadline):
                    break
        finally:
            if request.lead or not request.done:
                self._leave(request)
        if not request.done:
            raise ServingError(f"scoring request timed out after {timeout}s")
        probabilities = request.result()
        if request.dequeued_at is not None:
            last_queue_wait_ms.set(
                round(1000.0 * (request.dequeued_at - request.enqueued_at), 3)
            )
        return probabilities

    def _leave(self, request: _Request) -> None:
        """Withdraw ``request``'s untaken rows and, if its caller holds
        the lead, hand the lead to the oldest waiting caller."""
        with self._lock:
            if not request.done:
                try:
                    self._pending.remove(request)
                except ValueError:  # wholly taken already
                    pass
            if request.lead:
                request.lead = False
                if self._pending:
                    successor = self._pending[0]
                    successor.lead = True
                    successor.wake()
                else:
                    self._leading = False

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

    def _run_pass(self) -> None:
        """Assemble one pass from the head of the queue and score it on
        the calling (leading) thread.

        Take every request already queued, up to ``max_batch`` rows; a
        request that does not fit is cut, and its remaining rows stay
        at the head to open the next pass.  Wait for more only while
        the pass holds fewer requests than the previous pass did, and
        never longer than ``max_wait_ms`` after taking the first.  A
        lone request is scored at once; N closed-loop callers that
        shared the last pass are scored as soon as the N-th arrives;
        when load drops, one pass waits out the cap and the next
        expects fewer.  Greedy dispatch alone (never wait) splits
        concurrent callers into many small passes and loses throughput
        under load.
        """
        slices: list[tuple[_Request, int, int]] = []
        size = 0
        with self._lock:
            cap = time.monotonic() + self.max_wait_ms / 1000.0
            while size < self.max_batch:
                if self._pending:
                    size = self._take(slices, size)
                    continue
                remaining = cap - time.monotonic()
                if (
                    len(slices) >= self._expected
                    or remaining <= 0
                    or self._closed
                ):
                    break
                self._arrived.wait(remaining)
            self._expected = len(slices)
            self.batches += 1
            self.batched_rows += size
            self.max_batch_observed = max(self.max_batch_observed, size)
        self._score_pass(slices, size)

    def _take(self, slices: list[tuple[_Request, int, int]], size: int) -> int:
        """Add as many of the head request's untaken rows as fit, and
        dequeue it once it is wholly taken; returns the pass's new
        size.  Called with the lock held."""
        request = self._pending[0]
        start = request.taken
        stop = min(len(request.rows), start + self.max_batch - size)
        request.taken = stop
        if stop == len(request.rows):
            self._pending.popleft()
        slices.append((request, start, stop))
        return size + stop - start

    def _score_pass(
        self, slices: list[tuple[_Request, int, int]], size: int
    ) -> None:
        """Score one assembled pass and resolve its requests.

        Runs on the leader's thread, outside the lock, under the
        engine's own tracer.  The batch span parents onto the *first*
        request's shipped context (the request that opened the pass),
        carrying the pass size in rows, that request's queue wait, the
        number of requests, and the span contexts of the other requests
        (``links``) so every request in the pass can find it.  A pass
        that raises fails every request in it.
        """
        tracer = (
            self._tracer
            if self._tracer is not None
            else obs_trace.get_default_tracer()
        )
        if obs_trace.current_tracer() is not tracer:
            with obs_trace.use_tracer(tracer):
                self._score_pass(slices, size)
            return
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
        with tracer.span(
            "engine.batch",
            parent=opener.trace_context,
            batch_size=size,
            queue_wait_ms=round(1000.0 * queue_wait, 3),
            callers=len(slices),
            links=links,
        ):
            if len(slices) == 1 and size == len(opener.rows):
                rows, keys = opener.rows, opener.keys
            else:
                rows = [
                    row
                    for request, start, stop in slices
                    for row in request.rows[start:stop]
                ]
                keys = [
                    key
                    for request, start, stop in slices
                    for key in request.keys[start:stop]
                ]
            try:
                probabilities = self.score_rows(rows, keys)
            except Exception as exc:
                for request, _start, _stop in slices:
                    request.fail(exc)
                # A request cut by this pass heads the queue; it is
                # done now, so it must not open the next pass.
                with self._lock:
                    if self._pending and self._pending[0] is slices[-1][0]:
                        self._pending.popleft()
            else:
                offset = 0
                for request, start, stop in slices:
                    width = stop - start
                    request.resolve(probabilities[offset : offset + width])
                    offset += width

    # -- lifecycle & stats -------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions.  Requests already queued still
        complete on their callers' threads; there is no thread to
        stop."""
        with self._lock:
            self._closed = True
            self._arrived.notify_all()

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
