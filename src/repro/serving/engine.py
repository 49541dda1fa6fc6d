"""Request-level scoring on top of a registered scorer.

:class:`ScoringEngine` turns the batch-oriented
:class:`~repro.core.deployment.CrashPronenessScorer` into something a
request/response service can use:

* **validation** — every request row is checked against the scorer's
  expected input schema (missing columns, numbers where labels belong,
  and vice versa) before it gets near the model;
* **micro-batching** — concurrent requests' rows queue into a worker
  that scores them as *one* DataTable pass, amortising per-call
  overhead exactly the way the study amortises per-threshold work.
  The worker clocks itself: it takes every row already queued (up to
  ``max_batch``) and waits for more only while the batch holds fewer
  callers than the previous pass did.  A lone request is scored at
  once; ``max_wait_ms`` caps the wait, it is not a delay every request
  pays;
* **LRU result caching** — road segments re-score constantly with
  unchanged attributes, so results are cached by canonicalised row.

The engine is model-agnostic within the scorer contract: everything it
needs (input names, column kinds) comes from
``CrashPronenessScorer.input_schema()``.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any

from repro.core.deployment import CrashPronenessScorer
from repro.datatable import DataTable
from repro.exceptions import ServingError
from repro.obs import trace as obs_trace
from repro.serving.bulk import build_request_table, score_rows_sharded

__all__ = ["LRUResultCache", "ScoringEngine", "last_queue_wait_ms"]

#: Milliseconds the calling request's rows spent in the micro-batch
#: queue, published per-context by :meth:`ScoringEngine.score_one` /
#: :meth:`ScoringEngine.score_many` after their waits resolve.  The
#: HTTP layer resets it per request and copies it into the access log
#: (``queue_wait_ms``); the sharded bulk path never queues, so it
#: leaves the value at None.
last_queue_wait_ms: ContextVar[float | None] = ContextVar(
    "repro_engine_last_queue_wait_ms", default=None
)

_SHUTDOWN = object()

#: Stand-in for NaN in cache keys.  ``float("nan")`` is unusable as a
#: dict key component: NaN != NaN, so every lookup missed and every
#: miss inserted another never-hittable entry.  The sentinel restores
#: normal hashing while staying distinct from every real value.
_NAN_KEY = "__nan__"


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


class _Pending:
    """One queued row and the event its caller blocks on.

    ``caller`` is a token shared by every row of one
    :meth:`ScoringEngine.score_one` / :meth:`ScoringEngine.score_many`
    call; the worker counts distinct callers, not rows, when it decides
    whether to wait for more.  ``trace_context`` is the submitting
    request's span context (None when nobody is tracing): the
    micro-batch worker thread runs in no request's context, so the link
    from a request to the batch that scored its row must travel with
    the row.  ``enqueued_at`` feeds the batch span's queue-wait
    attribute; ``dequeued_at`` is stamped by the worker when the batch
    starts scoring, so the waiting caller can report its own queue wait
    after :meth:`wait` returns (the event set orders the write before
    the read).
    """

    __slots__ = (
        "row", "caller", "probability", "error", "enqueued_at",
        "dequeued_at", "trace_context", "_event",
    )

    def __init__(self, row: dict, caller: object, trace_context=None):
        self.row = row
        self.caller = caller
        self.probability: float | None = None
        self.error: Exception | None = None
        self.enqueued_at = time.monotonic()
        self.dequeued_at: float | None = None
        self.trace_context = trace_context
        self._event = threading.Event()

    def resolve(self, probability: float) -> None:
        self.probability = probability
        self._event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self._event.set()

    def wait(self, timeout: float | None = None) -> float:
        if not self._event.wait(timeout):
            raise ServingError(
                f"scoring request timed out after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.probability is not None
        return self.probability


class ScoringEngine:
    """Validating, micro-batching, caching front-end to one scorer.

    Parameters
    ----------
    scorer:
        The loaded :class:`CrashPronenessScorer`.
    name:
        Label used in error messages and stats (the registry name).
    max_batch:
        Micro-batch size cap in rows; no pass holds more.
    max_wait_ms:
        Cap on how long the worker holds an open batch for more
        callers after taking its first row.  It is a cap, not a delay
        every request pays: the worker waits only while the batch has
        fewer callers than the previous pass did, so a lone request is
        scored at once (see :meth:`_run`).
    cache_size:
        LRU capacity in rows; ``0`` disables the result cache.
    bulk_jobs:
        Worker processes for :meth:`score_batch`'s sharded path;
        ``1`` (default) keeps every batch in-process.
    bulk_threshold:
        Minimum batch row count before :meth:`score_batch` shards
        across the process pool; smaller batches stay on the
        micro-batcher, whose latency they benefit from.
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
        bulk_jobs: int = 1,
        bulk_threshold: int = 2048,
        tracer: obs_trace.Tracer | None = None,
    ):
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if bulk_threshold < 1:
            raise ServingError(
                f"bulk_threshold must be >= 1, got {bulk_threshold}"
            )
        self.scorer = scorer
        self.name = name
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.bulk_jobs = bulk_jobs
        self.bulk_threshold = bulk_threshold
        self._tracer = tracer
        self.schema = scorer.input_schema()
        self.input_names = list(self.schema)
        self.cache = LRUResultCache(cache_size)
        # Micro-batch pass statistics: three exact counters, so the
        # engine's footprint does not grow with its uptime.
        self.batches = 0
        self.batched_rows = 0
        self.max_batch_observed = 0
        self.n_scored = 0
        self.bulk_batches = 0
        self.bulk_rows = 0
        # SweepExecutor is imported lazily in _ensure_bulk_executor, so
        # the attribute cannot carry the concrete type here.
        self._bulk_executor: Any = None
        self._bulk_payload: dict | None = None
        self._bulk_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"scoring-engine-{name}", daemon=True
        )
        self._worker.start()

    # -- validation --------------------------------------------------------
    def validate_row(self, row: object, index: int = 0) -> dict:
        """Check one request row against the scorer's input schema."""
        if not isinstance(row, dict):
            raise ServingError(
                f"row {index} must be an object of column values, "
                f"got {type(row).__name__}"
            )
        missing = [n for n in self.input_names if n not in row]
        if missing:
            raise ServingError(
                f"row {index} is missing input column(s) "
                f"{', '.join(repr(m) for m in missing)}; scorer "
                f"{self.name!r} expects {self.input_names}"
            )
        for column in self.input_names:
            value = row[column]
            if value is None:
                continue
            kind = self.schema[column]["kind"]
            if kind == "numeric":
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ServingError(
                        f"row {index} column {column!r} expects a number, "
                        f"got {value!r}"
                    )
            elif not isinstance(value, str):
                raise ServingError(
                    f"row {index} column {column!r} expects a label, "
                    f"got {value!r}"
                )
        return row

    def canonical_key(self, row: dict) -> tuple:
        """Cache key: input values in schema order, numerics as float.

        NaN becomes a sentinel — as a raw key component it can never
        hit (NaN compares unequal to itself), which both defeated the
        cache for missing-value rows and let duplicates accumulate.
        """
        parts = []
        for column in self.input_names:
            value = row[column]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = _NAN_KEY if math.isnan(value) else float(value)
            parts.append(value)
        return tuple(parts)

    # -- direct (already-batched) scoring ----------------------------------
    def score_rows(
        self, rows: list[dict], validate: bool = True
    ) -> list[float]:
        """Score rows in one DataTable pass, consulting the LRU cache."""
        if validate:
            for i, row in enumerate(rows):
                self.validate_row(row, i)
        with obs_trace.span(
            "engine.score_rows", rows=len(rows)
        ) as score_span:
            results: list[float | None] = [None] * len(rows)
            keys = [self.canonical_key(row) for row in rows]
            fresh: OrderedDict[tuple, list[int]] = OrderedDict()
            for i, key in enumerate(keys):
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
                table = self._build_table(
                    [rows[indices[0]] for indices in fresh.values()]
                )
                probabilities = self.scorer.score(table)
                if len(probabilities) != len(fresh):
                    raise ServingError(
                        f"scorer {self.name!r} returned "
                        f"{len(probabilities)} probabilities for "
                        f"{len(fresh)} distinct rows"
                    )
                for (key, indices), p in zip(fresh.items(), probabilities):
                    value = float(p)
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

    def _build_table(self, rows: list[dict]) -> DataTable:
        return build_request_table(rows, self.schema)

    # -- micro-batched scoring ---------------------------------------------
    def submit(
        self,
        row: dict,
        index: int = 0,
        *,
        caller: object = None,
        validate: bool = True,
    ) -> _Pending:
        """Queue one row for the micro-batch worker.

        ``caller`` is the token of the request the row belongs to;
        ``None`` makes the row a caller of its own.  ``validate=False``
        skips the schema check for a row the caller already validated.
        """
        if self._closed:
            raise ServingError(f"engine {self.name!r} is closed")
        if validate:
            self.validate_row(row, index)
        pending = _Pending(
            row,
            caller if caller is not None else object(),
            trace_context=obs_trace.current_context(),
        )
        self._queue.put(pending)
        return pending

    @staticmethod
    def _publish_queue_wait(pendings: list[_Pending]) -> None:
        """Set :data:`last_queue_wait_ms` to the slowest queue wait."""
        waits = [
            p.dequeued_at - p.enqueued_at
            for p in pendings
            if p.dequeued_at is not None
        ]
        if waits:
            last_queue_wait_ms.set(round(1000.0 * max(waits), 3))

    def score_one(self, row: dict, timeout: float | None = 30.0) -> float:
        """Score a single row through the micro-batcher (blocking)."""
        pending = self.submit(row)
        probability = pending.wait(timeout)
        self._publish_queue_wait([pending])
        return probability

    def score_many(
        self, rows: list[dict], timeout: float | None = 30.0
    ) -> list[float]:
        """Score a request's row list through the micro-batcher.

        Every row is validated before any is queued, so an invalid
        row rejects the whole request without scoring the rows before
        it.  All rows are queued, as one caller, before any result is
        awaited, so one request's rows — and any concurrent requests'
        rows — can share DataTable passes.
        """
        if not isinstance(rows, list) or not rows:
            raise ServingError("rows must be a non-empty list of objects")
        with obs_trace.span("engine.score_many", rows=len(rows)):
            for i, row in enumerate(rows):
                self.validate_row(row, i)
            caller = object()
            pending = [
                self.submit(row, i, caller=caller, validate=False)
                for i, row in enumerate(rows)
            ]
            results = [p.wait(timeout) for p in pending]
            self._publish_queue_wait(pending)
            return results

    # -- process-sharded bulk scoring ---------------------------------------
    def _bulk_eligible(self, rows: list) -> bool:
        return (
            self.bulk_jobs != 1
            and len(rows) >= self.bulk_threshold
        )

    def _ensure_bulk_executor(self):
        # Imported lazily so the serial engine never touches the pool
        # machinery; created once and reused across batch requests.
        from repro.parallel import SweepExecutor

        with self._bulk_lock:
            if self._closed:
                raise ServingError(f"engine {self.name!r} is closed")
            if self._bulk_executor is None:
                self._bulk_executor = SweepExecutor(n_jobs=self.bulk_jobs)
            if self._bulk_payload is None:
                self._bulk_payload = self.scorer.to_dict()
            return self._bulk_executor, self._bulk_payload

    def score_batch(
        self, rows: list[dict], timeout: float | None = 30.0
    ) -> list[float]:
        """Score a batch request, sharding big ones across processes.

        Batches below ``bulk_threshold`` (or with ``bulk_jobs=1``) go
        through the micro-batcher exactly as :meth:`score_many`.
        Bigger ones are validated here, cut into contiguous shards and
        scored on the bulk process pool with worker-cached scorers —
        results come back in request order, element-for-element
        identical to the single-process path.  The sharded path
        bypasses the LRU cache: a network-wide re-score would only
        evict the interactive working set.
        """
        if not isinstance(rows, list) or not rows:
            raise ServingError("rows must be a non-empty list of objects")
        if not self._bulk_eligible(rows):
            return self.score_many(rows, timeout)
        with obs_trace.span(
            "engine.score_batch", rows=len(rows), bulk_jobs=self.bulk_jobs
        ):
            for i, row in enumerate(rows):
                self.validate_row(row, i)
            executor, payload = self._ensure_bulk_executor()
            probabilities = score_rows_sharded(payload, rows, executor)
        self.bulk_batches += 1
        self.bulk_rows += len(rows)
        self.n_scored += len(rows)
        return probabilities

    def _run(self) -> None:
        """The micro-batch worker: one self-clocking loop.

        Block for the first row, then take every row already queued,
        up to ``max_batch``.  Wait for more only while the batch holds
        fewer distinct callers than the previous pass did, and never
        longer than ``max_wait_ms`` after taking the first row.  A lone
        caller is scored at once; N closed-loop callers that shared the
        last pass are scored as soon as the N-th arrives; when load
        drops, one pass waits out the cap and the next expects fewer.
        Greedy dispatch alone (never wait) splits concurrent callers
        into many small passes and loses throughput under load.
        """
        stopping = False
        expected_callers = 0
        while not stopping:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            batch = [item]
            callers = {item.caller}
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    remaining = deadline - time.monotonic()
                    if len(callers) >= expected_callers or remaining <= 0:
                        break
                    try:
                        item = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                batch.append(item)
                callers.add(item.caller)
            expected_callers = len(callers)
            self.batches += 1
            self.batched_rows += len(batch)
            self.max_batch_observed = max(self.max_batch_observed, len(batch))
            self._score_pendings(batch, len(callers))

    def _score_pendings(self, batch: list[_Pending], n_callers: int) -> None:
        """Score one assembled micro-batch and resolve its waiters.

        Runs in the worker thread, which has no request context: the
        batch span goes to the engine's own tracer and parents onto the
        *first* pending's shipped context (the request that opened the
        batch), carrying the batch size, that request's queue wait, the
        number of callers, and the span contexts of the other callers
        (``links``) so every request in the batch can find it.
        """
        tracer = (
            self._tracer
            if self._tracer is not None
            else obs_trace.get_default_tracer()
        )
        dequeued_at = time.monotonic()
        for p in batch:
            p.dequeued_at = dequeued_at
        queue_wait = dequeued_at - batch[0].enqueued_at
        links: list[dict] = []
        if tracer.enabled:
            others = {
                p.caller: p.trace_context
                for p in batch
                if p.caller is not batch[0].caller
            }
            links = [
                {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
                for ctx in others.values()
                if ctx is not None
            ]
        with obs_trace.use_tracer(tracer), tracer.span(
            "engine.batch",
            parent=batch[0].trace_context,
            batch_size=len(batch),
            queue_wait_ms=round(1000.0 * queue_wait, 3),
            callers=n_callers,
            links=links,
        ):
            try:
                probabilities = self.score_rows(
                    [p.row for p in batch], validate=False
                )
            except Exception as exc:  # pragma: no cover - defensive
                for p in batch:
                    p.fail(exc)
            else:
                for p, probability in zip(batch, probabilities):
                    p.resolve(probability)

    # -- lifecycle & stats -------------------------------------------------
    def close(self) -> None:
        """Stop the worker; queued requests are drained first."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=10.0)
        with self._bulk_lock:
            executor, self._bulk_executor = self._bulk_executor, None
        if executor is not None:
            executor.shutdown()

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
            "bulk_jobs": self.bulk_jobs,
            "bulk_threshold": self.bulk_threshold,
            "bulk_batches": self.bulk_batches,
            "bulk_rows": self.bulk_rows,
        }
