"""Continuous sampling profiler — folded stacks with span attribution.

A daemon thread wakes ``hz`` times a second, snapshots every Python
thread's stack via ``sys._current_frames()``, and folds each stack into
the collapsed flamegraph form (``frame;frame;frame``, root first) used
by ``flamegraph.pl`` / speedscope.  Counts per distinct folded stack
are the profile; wall-clock attribution follows from sample counts
(each sample ≈ ``1/hz`` seconds of that stack being live).

**Span attribution.**  The profiler installs an
:class:`ActiveSpanRegistry` on a tracer
(:attr:`repro.obs.trace.Tracer.active_registry`); span enter/exit
push/pop span names keyed by thread id.  Each sample then joins the
sampled thread id against the registry, so every folded stack also
carries the sampled thread's active span stack — a profile can be
filtered to "time under ``engine.score_rows``" and per-span self time
falls out of the sample counts.  When no profiler is running the
registry is ``None`` and the tracer hook is a single attribute check —
the same zero-cost-when-disabled pattern the tracer itself uses.

**Bounds.**  Distinct (span leaf, folded stack) keys are capped at
``max_stacks``; samples landing on a new stack beyond the cap are
counted in :attr:`SamplingProfiler.dropped_stacks` rather than grown —
a long-lived server's profile cannot consume unbounded memory and the
loss is explicit, never silent.

Sampling is a measurement layer: it reads frames, never objects, and
touches no RNG — a profiled study is bit-identical to an unprofiled
one (pinned by the golden-table tests).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, ProfilerStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.trace import Tracer

__all__ = ["ActiveSpanRegistry", "SamplingProfiler", "DEFAULT_HZ"]

#: Default sampling rate.  19 Hz is deliberately prime (no lockstep
#: with 10/100 ms periodic work) and cheap: < 5% overhead on the paper
#: study, measured in ``benchmarks/results/profiling.json``.
DEFAULT_HZ = 19

#: Frames kept per sampled stack (root-ward truncation beyond this).
MAX_STACK_DEPTH = 64

#: Default cap on distinct (span, stack) keys held in memory.
DEFAULT_MAX_STACKS = 10_000


class ActiveSpanRegistry:
    """Thread id → stack of active span names, for sample attribution.

    ``push``/``pop`` are called by the span handles of the tracer the
    profiler is attached to, always from the span's own thread;
    :meth:`snapshot` is called by the sampler thread.  A lock guards
    the map — both sides hold it only for a dict/list operation.
    """

    __slots__ = ("_lock", "_stacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list[str]] = {}

    def push(self, name: str) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._stacks.setdefault(tid, []).append(name)

    def pop(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.get(tid)
            if stack:
                stack.pop()
                if not stack:
                    del self._stacks[tid]

    def snapshot(self) -> dict[int, tuple[str, ...]]:
        with self._lock:
            return {
                tid: tuple(stack) for tid, stack in self._stacks.items()
            }


def _fold(frame, limit: int = MAX_STACK_DEPTH) -> str:
    """Collapse a leaf frame's chain into ``root;...;leaf`` form."""
    parts: list[str] = []
    while frame is not None and len(parts) < limit:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Sample all thread stacks at ``hz`` into bounded folded counts.

    Use as a context manager or via :meth:`start`/:meth:`stop`.  Pass
    ``tracer`` to attribute samples to that tracer's active spans (the
    registry is installed on start and removed on stop).
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stacks: int = DEFAULT_MAX_STACKS,
        tracer: "Tracer | None" = None,
    ):
        if hz <= 0:
            raise ConfigurationError(f"hz must be > 0, got {hz}")
        if max_stacks < 1:
            raise ConfigurationError(
                f"max_stacks must be >= 1, got {max_stacks}"
            )
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.registry = ActiveSpanRegistry()
        self._tracer = tracer
        self._interval = 1.0 / float(hz)
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # (active span tuple, folded stack) -> sample count
        self._counts: dict[tuple[tuple[str, ...], str], int] = {}
        self.samples = 0
        self.dropped_stacks = 0
        self._started_at: float | None = None
        self._stopped_at: float | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise ProfilerStateError("profiler already started")
        if self._tracer is not None:
            self._tracer.active_registry = self.registry
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        if self._tracer is not None and (
            self._tracer.active_registry is self.registry
        ):
            self._tracer.active_registry = None
        self._stopped_at = time.monotonic()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # -- sampling ----------------------------------------------------------
    def _run(self) -> None:
        own_tid = threading.get_ident()
        while not self._stop_event.wait(self._interval):
            self._sample(own_tid)

    def _sample(self, own_tid: int) -> None:
        spans = self.registry.snapshot()
        frames = sys._current_frames()
        # Fold outside the counts lock; only the dict update is guarded.
        folded: list[tuple[tuple[str, ...], str]] = []
        for tid, frame in frames.items():
            if tid == own_tid:
                continue
            folded.append((spans.get(tid, ()), _fold(frame)))
        with self._lock:
            for key in folded:
                self.samples += 1
                count = self._counts.get(key)
                if count is not None:
                    self._counts[key] = count + 1
                elif len(self._counts) < self.max_stacks:
                    self._counts[key] = 1
                else:
                    self.dropped_stacks += 1

    def sample_once(self) -> None:
        """Take one sample synchronously (deterministic tests)."""
        self._sample(threading.get_ident())

    # -- read side ---------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            distinct = len(self._counts)
            samples = self.samples
            dropped = self.dropped_stacks
        if self._started_at is None:
            elapsed = 0.0
        else:
            end = self._stopped_at
            if end is None:
                end = time.monotonic()
            elapsed = end - self._started_at
        return {
            "hz": self.hz,
            "running": self.running,
            "elapsed_seconds": elapsed,
            "samples": samples,
            "distinct_stacks": distinct,
            "dropped_stacks": dropped,
            "max_stacks": self.max_stacks,
        }

    def _snapshot_counts(
        self, span_filter: str | None
    ) -> dict[tuple[tuple[str, ...], str], int]:
        with self._lock:
            items = dict(self._counts)
        if span_filter is None:
            return items
        return {
            key: n for key, n in items.items() if span_filter in key[0]
        }

    def self_time_by_span(self) -> dict[str, int]:
        """Leaf active span → sample count (self time ≈ count / hz).

        Samples are attributed to the innermost span active on the
        sampled thread; threads with no active span land under ``""``.
        """
        out: dict[str, int] = {}
        for (span_stack, _), n in self._snapshot_counts(None).items():
            leaf = span_stack[-1] if span_stack else ""
            out[leaf] = out.get(leaf, 0) + n
        return dict(sorted(out.items()))

    def render_collapsed(self, span_filter: str | None = None) -> str:
        """The profile in collapsed flamegraph form, deterministically
        ordered (descending count, then stack text).

        ``span_filter`` keeps only samples taken while a span with that
        exact name was active on the sampled thread.
        """
        merged: dict[str, int] = {}
        for (_, stack), n in self._snapshot_counts(span_filter).items():
            merged[stack] = merged.get(stack, 0) + n
        lines = [
            f"{stack} {n}"
            for stack, n in sorted(
                merged.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines)

    def to_dict(self, span_filter: str | None = None) -> dict:
        """JSON form: stats + per-stack records + per-span self time."""
        records = [
            {"spans": list(span_stack), "stack": stack, "count": n}
            for (span_stack, stack), n in sorted(
                self._snapshot_counts(span_filter).items(),
                key=lambda kv: (-kv[1], kv[0][1], kv[0][0]),
            )
        ]
        return {
            "stats": self.stats(),
            "span_self_samples": self.self_time_by_span(),
            "stacks": records,
        }
